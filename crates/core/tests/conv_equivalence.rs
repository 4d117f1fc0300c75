//! Property tests: the structured channel operators are interchangeable
//! with the dense reference [`Channel`] on every kernel family — DAM,
//! DAM-NS, DAM-X and HUEM — including the `b̂ = 0` degenerate
//! randomized-response kernel and non-power-of-two grid sides, both for
//! the raw EM primitives and for whole EM fixpoints.
//!
//! Tolerances: the stencil ([`ConvChannel`]) walks the same floating-point
//! order as the dense operator up to re-association, so it is held to
//! ≤ 1e-12 per cell; the spectral operator ([`FftChannel`]) goes through
//! a forward/inverse transform pair whose roundoff scales with the padded
//! grid, so the three-way suite is held to ≤ 1e-9 (the bound the
//! large-radius regime is certified to).

use dam_core::grid::KernelKind;
use dam_core::kernel::DiscreteKernel;
use dam_core::{ConvChannel, FftChannel};
use dam_fo::em::{expectation_maximization, ChannelOp, EmParams, EmWorkspace};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// All four SAM kernel families, indexed for strategy generation.
fn build_kernel(family: usize, eps: f64, d: u32, b_hat: u32) -> DiscreteKernel {
    match family {
        0 => DiscreteKernel::dam(eps, d, b_hat, KernelKind::Shrunken),
        1 => DiscreteKernel::dam(eps, d, b_hat, KernelKind::NonShrunken),
        2 => DiscreteKernel::dam(eps, d, b_hat, KernelKind::ExactIntersection),
        _ => DiscreteKernel::huem(eps, d, b_hat),
    }
}

fn family_name(family: usize) -> &'static str {
    ["DAM", "DAM-NS", "DAM-X", "HUEM"][family.min(3)]
}

/// A strictly positive random distribution over `n` cells.
fn random_distribution(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-4).collect();
    let total: f64 = v.iter().sum();
    v.into_iter().map(|x| x / total).collect()
}

/// Random nonnegative weights with a sprinkling of exact zeros (EM zeroes
/// the weight of unobserved outputs, so the adjoint must handle them).
fn random_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| if rng.gen::<f64>() < 0.2 { 0.0 } else { rng.gen::<f64>() * 3.0 }).collect()
}

/// Per-cell tolerance for each structured backend against dense.
const CONV_TOL: f64 = 1e-12;
const FFT_TOL: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apply_matches_dense_everywhere(
        family in 0usize..4,
        eps in 0.3f64..6.0,
        d in 2u32..14,
        b_hat in 0u32..6,
        seed in 0u64..1_000,
    ) {
        let kernel = build_kernel(family, eps, d, b_hat);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        let fft = FftChannel::new(&kernel);
        prop_assert_eq!(dense.n_in(), conv.n_in());
        prop_assert_eq!(dense.n_out(), conv.n_out());
        prop_assert_eq!(dense.n_in(), fft.n_in());
        prop_assert_eq!(dense.n_out(), fft.n_out());
        let mut ws = EmWorkspace::new();
        let f = random_distribution(conv.n_in(), seed);
        let mut out_dense = vec![0.0; conv.n_out()];
        let mut out_conv = vec![0.0; conv.n_out()];
        let mut out_fft = vec![0.0; conv.n_out()];
        dense.apply(&f, &mut out_dense, &mut ws);
        conv.apply(&f, &mut out_conv, &mut ws);
        fft.apply(&f, &mut out_fft, &mut ws);
        for o in 0..conv.n_out() {
            prop_assert!(
                (out_dense[o] - out_conv[o]).abs() <= CONV_TOL,
                "{} eps {eps} d {d} b {b_hat} output {o}: dense {} vs conv {}",
                family_name(family), out_dense[o], out_conv[o]
            );
            prop_assert!(
                (out_dense[o] - out_fft[o]).abs() <= FFT_TOL,
                "{} eps {eps} d {d} b {b_hat} output {o}: dense {} vs fft {}",
                family_name(family), out_dense[o], out_fft[o]
            );
        }
    }

    #[test]
    fn adjoint_matches_dense_everywhere(
        family in 0usize..4,
        eps in 0.3f64..6.0,
        d in 2u32..14,
        b_hat in 0u32..6,
        seed in 0u64..1_000,
    ) {
        let kernel = build_kernel(family, eps, d, b_hat);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        let fft = FftChannel::new(&kernel);
        let mut ws = EmWorkspace::new();
        let f = random_distribution(conv.n_in(), seed);
        let w = random_weights(conv.n_out(), seed ^ 0xADD0);
        let mut new_dense = vec![0.0; conv.n_in()];
        let mut new_conv = vec![0.0; conv.n_in()];
        let mut new_fft = vec![0.0; conv.n_in()];
        dense.accumulate_adjoint(&w, &f, &mut new_dense, &mut ws);
        conv.accumulate_adjoint(&w, &f, &mut new_conv, &mut ws);
        fft.accumulate_adjoint(&w, &f, &mut new_fft, &mut ws);
        for i in 0..conv.n_in() {
            prop_assert!(
                (new_dense[i] - new_conv[i]).abs() <= CONV_TOL,
                "{} eps {eps} d {d} b {b_hat} input {i}: dense {} vs conv {}",
                family_name(family), new_dense[i], new_conv[i]
            );
            prop_assert!(
                (new_dense[i] - new_fft[i]).abs() <= FFT_TOL,
                "{} eps {eps} d {d} b {b_hat} input {i}: dense {} vs fft {}",
                family_name(family), new_dense[i], new_fft[i]
            );
        }
    }

    #[test]
    fn em_fixpoints_match_dense(
        family in 0usize..4,
        eps in 0.3f64..5.0,
        d in 2u32..8,
        b_hat in 0u32..4,
        seed in 0u64..1_000,
    ) {
        let kernel = build_kernel(family, eps, d, b_hat);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        let fft = FftChannel::new(&kernel);
        // Integer counts with zeros, as a real aggregator would hold.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts: Vec<f64> =
            (0..conv.n_out()).map(|_| rng.gen_range(0u32..40) as f64).collect();
        prop_assume!(counts.iter().sum::<f64>() > 0.0);
        // Fixed iteration count: every operator must walk the same
        // trajectory, not merely stop near the same optimum.
        let params = EmParams { max_iters: 60, rel_tol: 0.0, gain_tol: 0.0 };
        let fd = expectation_maximization(&dense, &counts, None, None, params, &mut EmWorkspace::new()).estimate;
        let fc = expectation_maximization(&conv, &counts, None, None, params, &mut EmWorkspace::new()).estimate;
        let ff = expectation_maximization(&fft, &counts, None, None, params, &mut EmWorkspace::new()).estimate;
        for i in 0..conv.n_in() {
            prop_assert!(
                (fd[i] - fc[i]).abs() <= CONV_TOL,
                "{} eps {eps} d {d} b {b_hat} bin {i}: dense {} vs conv {}",
                family_name(family), fd[i], fc[i]
            );
            prop_assert!(
                (fd[i] - ff[i]).abs() <= FFT_TOL,
                "{} eps {eps} d {d} b {b_hat} bin {i}: dense {} vs fft {}",
                family_name(family), fd[i], ff[i]
            );
        }
    }

    #[test]
    fn structured_columns_are_stochastic(
        family in 0usize..4,
        eps in 0.3f64..6.0,
        d in 2u32..14,
        b_hat in 0u32..6,
    ) {
        // Applying the operator to a point mass yields that input's full
        // output distribution; it must sum to 1 for every input cell.
        let kernel = build_kernel(family, eps, d, b_hat);
        let conv = ConvChannel::new(&kernel);
        let fft = FftChannel::new(&kernel);
        let mut ws = EmWorkspace::new();
        let n_in = conv.n_in();
        let mut out = vec![0.0; conv.n_out()];
        for i in [0, n_in / 2, n_in - 1] {
            let mut f = vec![0.0; n_in];
            f[i] = 1.0;
            // The stencil adds nonnegative masses, so it owes *exact*
            // nonnegativity; the spectral path only owes it up to
            // transform roundoff.
            for (op, floor) in
                [(&conv as &dyn ChannelOp, 0.0), (&fft as &dyn ChannelOp, -1e-12)]
            {
                op.apply(&f, &mut out, &mut ws);
                let total: f64 = out.iter().sum();
                prop_assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{} eps {eps} d {d} b {b_hat} input {i}: column sums to {total}",
                    family_name(family)
                );
                prop_assert!(
                    out.iter().all(|&x| x >= floor),
                    "{} eps {eps} d {d} b {b_hat} input {i}: negative mass below {floor}",
                    family_name(family)
                );
            }
        }
    }
}

/// Deliberately non-power-of-two sides with radii pushing the padded grid
/// to the next power of two — the regime where padding bugs would hide
/// from the small proptest ranges above.
#[test]
fn fft_matches_dense_on_awkward_shapes() {
    let mut ws = EmWorkspace::new();
    for &(d, b_hat) in &[(3u32, 7u32), (5, 6), (12, 11), (17, 8), (31, 1)] {
        let kernel = DiscreteKernel::dam(2.0, d, b_hat, KernelKind::Shrunken);
        let dense = kernel.channel();
        let fft = FftChannel::new(&kernel);
        let f = random_distribution(fft.n_in(), u64::from(d * 100 + b_hat));
        let w = random_weights(fft.n_out(), u64::from(d * 7 + b_hat));
        let mut out_dense = vec![0.0; fft.n_out()];
        let mut out_fft = vec![0.0; fft.n_out()];
        dense.apply(&f, &mut out_dense, &mut ws);
        fft.apply(&f, &mut out_fft, &mut ws);
        for o in 0..fft.n_out() {
            assert!(
                (out_dense[o] - out_fft[o]).abs() <= FFT_TOL,
                "d {d} b {b_hat} output {o}: {} vs {}",
                out_dense[o],
                out_fft[o]
            );
        }
        let mut new_dense = vec![0.0; fft.n_in()];
        let mut new_fft = vec![0.0; fft.n_in()];
        dense.accumulate_adjoint(&w, &f, &mut new_dense, &mut ws);
        fft.accumulate_adjoint(&w, &f, &mut new_fft, &mut ws);
        for i in 0..fft.n_in() {
            assert!(
                (new_dense[i] - new_fft[i]).abs() <= FFT_TOL,
                "d {d} b {b_hat} input {i}: {} vs {}",
                new_dense[i],
                new_fft[i]
            );
        }
    }
}

/// End-to-end: `EmOperator::post_process` on the auto backend and every
/// explicit backend agree on a full pipeline histogram.
#[test]
fn post_process_backends_agree_end_to_end() {
    use dam_core::{EmBackend, EmOperator, PostProcess};
    use dam_geo::{BoundingBox, Grid2D};

    for (family, eps, d, b) in
        [(0usize, 2.0, 6u32, 2u32), (1, 1.0, 5, 3), (2, 3.0, 4, 1), (3, 1.5, 6, 2), (0, 4.0, 5, 0)]
    {
        let kernel = build_kernel(family, eps, d, b);
        let grid = Grid2D::new(BoundingBox::unit(), d);
        let counts = random_weights(kernel.n_out(), 99)
            .iter()
            .map(|x| (x * 50.0).round())
            .collect::<Vec<_>>();
        let params = EmParams { max_iters: 40, rel_tol: 0.0, gain_tol: 0.0 };
        let post_process = |post, backend| {
            EmOperator::new(&kernel, backend)
                .post_process(&counts, &grid, post, params, None, &mut EmWorkspace::new())
                .histogram
        };
        let auto = post_process(PostProcess::Em, EmBackend::Auto);
        for backend in [EmBackend::Convolution, EmBackend::Dense, EmBackend::Fft] {
            let explicit = post_process(PostProcess::Em, backend);
            for (a, b_val) in auto.values().iter().zip(explicit.values()) {
                assert!(
                    (a - b_val).abs() <= FFT_TOL,
                    "{} {:?}: {a} vs {b_val}",
                    family_name(family),
                    backend
                );
            }
        }
        // The EMS flavour must agree too (smoothing happens outside the
        // operator, but exercises the swap/normalise plumbing).
        let auto_ems = post_process(PostProcess::Ems, EmBackend::Auto);
        let fft_ems = post_process(PostProcess::Ems, EmBackend::Fft);
        for (a, b_val) in auto_ems.values().iter().zip(fft_ems.values()) {
            assert!((a - b_val).abs() <= FFT_TOL, "{} EMS: {a} vs {b_val}", family_name(family));
        }
    }
}

/// FNV-1a over the spectral operator's output bits; see
/// [`fft_channel_matches_pinned_bits`].
const FFT_CHANNEL_BITS: u64 = 0x20ba_95fb_9182_2c49;

/// Pins the spectral operator bit for bit, not just to a tolerance: any
/// change to the butterfly order, the twiddles or the inverse scaling
/// moves the hash. Covers both primitives and a bounded cold EM on the
/// `stream-fft` shape (d = 64, b̂ = 14, n = 128), the `ingest-1m` shape
/// (d = 20, b̂ = 4, n = 32) and a padded grid strictly wider than the
/// output grid (d = 13, b̂ = 5: out_d = 23 < n = 32), plus one EMS
/// PostProcess so the smoother path is folded in too.
#[test]
fn fft_channel_matches_pinned_bits() {
    use dam_core::{EmBackend, EmOperator, PostProcess};
    use dam_geo::{BoundingBox, Grid2D};

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |values: &[f64]| {
        for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let params = EmParams { max_iters: 20, rel_tol: 0.0, gain_tol: 0.0 };
    for (d, b_hat, n) in [(64u32, 14u32, 128usize), (20, 4, 32), (13, 5, 32)] {
        let kernel = DiscreteKernel::dam(3.0, d, b_hat, KernelKind::Shrunken);
        let fft = FftChannel::new(&kernel);
        assert_eq!(fft.padded_n(), n);
        let mut ws = EmWorkspace::new();
        let f = random_distribution(fft.n_in(), u64::from(d));
        let w = random_weights(fft.n_out(), u64::from(d + b_hat));
        let mut out = vec![0.0; fft.n_out()];
        fft.apply(&f, &mut out, &mut ws);
        fold(&out);
        let mut f_new = vec![0.0; fft.n_in()];
        fft.accumulate_adjoint(&w, &f, &mut f_new, &mut ws);
        fold(&f_new);
        let counts: Vec<f64> = w.iter().map(|x| (x * 20.0).round()).collect();
        let run = expectation_maximization(&fft, &counts, None, None, params, &mut ws);
        assert_eq!(run.iters, 20);
        fold(&run.estimate);
    }
    let kernel = DiscreteKernel::dam(3.0, 20, 4, KernelKind::Shrunken);
    let counts: Vec<f64> =
        random_weights(kernel.n_out(), 7).iter().map(|x| (x * 20.0).round()).collect();
    let ems = EmOperator::new(&kernel, EmBackend::Fft).post_process(
        &counts,
        &Grid2D::new(BoundingBox::unit(), 20),
        PostProcess::Ems,
        params,
        None,
        &mut EmWorkspace::new(),
    );
    fold(ems.histogram.values());
    assert_eq!(h, FFT_CHANNEL_BITS, "spectral operator bits moved: {h:#018x}");
}

/// The pinned bits above cover the two-core spectral path: the n = 128
/// `stream-fft` shape splits every convolution across the pool whenever
/// the host has more than one core, so at least two threads must have
/// drained a pool batch at once. (CI runs this suite again under
/// `taskset -c 0`, where the same constants pin the serial path.)
#[test]
fn padded_128_channel_runs_on_several_threads() {
    let kernel = DiscreteKernel::dam(3.0, 64, 14, KernelKind::Shrunken);
    let fft = FftChannel::new(&kernel);
    assert_eq!(fft.padded_n(), 128);
    let counts: Vec<f64> =
        random_weights(fft.n_out(), 128).iter().map(|x| (x * 20.0).round()).collect();
    let params = EmParams { max_iters: 50, rel_tol: 0.0, gain_tol: 0.0 };
    let run = expectation_maximization(&fft, &counts, None, None, params, &mut EmWorkspace::new());
    assert_eq!(run.iters, 50);
    if std::thread::available_parallelism().map_or(1, |p| p.get()) > 1 {
        assert!(
            rayon::pool::max_observed_concurrency() >= 2,
            "the n = 128 spectral channel never ran on two threads"
        );
    }
}
