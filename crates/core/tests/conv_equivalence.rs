//! Property tests: the spectral channel operator is interchangeable with
//! the dense reference [`Channel`](dam_fo::em::Channel) on every kernel
//! family — DAM, DAM-NS, the exact-area reference kernel and HUEM —
//! including the `b̂ = 0` degenerate randomized-response kernel and
//! non-power-of-two grid sides, both for the raw EM primitives and for
//! whole EM fixpoints.
//!
//! Tolerance: the spectral operator ([`FftChannel`]) goes through a
//! forward/inverse transform pair whose roundoff scales with the padded
//! grid, so it is held to ≤ 1e-9 per cell (the bound the large-radius
//! regime is certified to).

use dam_core::grid::KernelKind;
use dam_core::kernel::DiscreteKernel;
use dam_core::FftChannel;
use dam_fo::em::{expectation_maximization, ChannelOp, EmParams, EmWorkspace};
use dam_geo::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// The three SAM kernel families plus the exact-area reference kernel,
/// indexed for strategy generation.
fn build_kernel(family: usize, eps: f64, d: u32, b_hat: u32) -> DiscreteKernel {
    match family {
        0 => DiscreteKernel::dam(eps, d, b_hat, KernelKind::Shrunken),
        1 => DiscreteKernel::dam(eps, d, b_hat, KernelKind::NonShrunken),
        2 => DiscreteKernel::dam(eps, d, b_hat, KernelKind::ExactIntersection),
        _ => DiscreteKernel::huem(eps, d, b_hat),
    }
}

fn family_name(family: usize) -> &'static str {
    ["DAM", "DAM-NS", "exact-area", "HUEM"][family.min(3)]
}

/// A strictly positive random distribution over `n` cells.
fn random_distribution(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded(seed);
    let v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-4).collect();
    let total: f64 = v.iter().sum();
    v.into_iter().map(|x| x / total).collect()
}

/// Random nonnegative weights with a sprinkling of exact zeros (EM zeroes
/// the weight of unobserved outputs, so the adjoint must handle them).
fn random_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded(seed);
    (0..n).map(|_| if rng.gen::<f64>() < 0.2 { 0.0 } else { rng.gen::<f64>() * 3.0 }).collect()
}

/// Per-cell tolerance of the spectral operator against dense.
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
        let fft = FftChannel::new(&kernel, None);
        prop_assert_eq!(dense.n_in(), fft.n_in());
        prop_assert_eq!(dense.n_out(), fft.n_out());
        let mut ws = EmWorkspace::new();
        let f = random_distribution(fft.n_in(), seed);
        let mut out_dense = vec![0.0; fft.n_out()];
        let mut out_fft = vec![0.0; fft.n_out()];
        dense.apply(&f, &mut out_dense, &mut ws);
        fft.apply(&f, &mut out_fft, &mut ws);
        for o in 0..fft.n_out() {
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
        let fft = FftChannel::new(&kernel, None);
        let mut ws = EmWorkspace::new();
        let f = random_distribution(fft.n_in(), seed);
        let w = random_weights(fft.n_out(), seed ^ 0xADD0);
        let mut new_dense = vec![0.0; fft.n_in()];
        let mut new_fft = vec![0.0; fft.n_in()];
        dense.accumulate_adjoint(&w, &f, &mut new_dense, &mut ws);
        fft.accumulate_adjoint(&w, &f, &mut new_fft, &mut ws);
        for i in 0..fft.n_in() {
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
        let fft = FftChannel::new(&kernel, None);
        // Integer counts with zeros, as a real aggregator would hold.
        let mut rng = seeded(seed);
        let counts: Vec<f64> =
            (0..fft.n_out()).map(|_| rng.gen_range(0u32..40) as f64).collect();
        prop_assume!(counts.iter().sum::<f64>() > 0.0);
        // Fixed iteration count: every operator must walk the same
        // trajectory, not merely stop near the same optimum.
        let params = EmParams { max_iters: 60, rel_tol: 0.0, gain_tol: 0.0 };
        let fd = expectation_maximization(&dense, &counts, None, None, params, &mut EmWorkspace::new()).estimate;
        let ff = expectation_maximization(&fft, &counts, None, None, params, &mut EmWorkspace::new()).estimate;
        for i in 0..fft.n_in() {
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
        let fft = FftChannel::new(&kernel, None);
        let mut ws = EmWorkspace::new();
        let n_in = fft.n_in();
        let mut out = vec![0.0; fft.n_out()];
        for i in [0, n_in / 2, n_in - 1] {
            let mut f = vec![0.0; n_in];
            f[i] = 1.0;
            // The kernel's masses are nonnegative; the spectral path owes
            // that only up to transform roundoff.
            fft.apply(&f, &mut out, &mut ws);
            let total: f64 = out.iter().sum();
            prop_assert!(
                (total - 1.0).abs() < 1e-9,
                "{} eps {eps} d {d} b {b_hat} input {i}: column sums to {total}",
                family_name(family)
            );
            prop_assert!(
                out.iter().all(|&x| x >= -1e-12),
                "{} eps {eps} d {d} b {b_hat} input {i}: negative mass below -1e-12",
                family_name(family)
            );
        }
    }
}

/// Deliberately awkward sides with radii pushing the padded grid past
/// the output grid — onto the next power of two, or onto a mixed-radix
/// `2^a·3^b` side (24, 36, 72, 96) — the regime where padding bugs would
/// hide from the small proptest ranges above.
#[test]
fn fft_matches_dense_on_awkward_shapes() {
    let mut ws = EmWorkspace::new();
    for &(d, b_hat, n) in &[
        (3u32, 7u32, 18usize),
        (5, 6, 18),
        (12, 11, 36),
        (17, 8, 36),
        (31, 1, 36),
        (10, 7, 24),
        (4, 16, 36),
        (8, 32, 72),
        (12, 40, 96),
    ] {
        let kernel = DiscreteKernel::dam(2.0, d, b_hat, KernelKind::Shrunken);
        let dense = kernel.channel();
        let fft = FftChannel::new(&kernel, None);
        assert_eq!(fft.padded_n(), n, "d {d} b {b_hat}");
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

/// End-to-end: `expectation_maximization` on the spectral operator and
/// on the dense reference channel agree on a full pipeline histogram, for
/// both plain EM and EMS (`smooth_2d` as the smoother).
#[test]
fn post_process_backends_agree_end_to_end() {
    use dam_core::em2d::smooth_2d;

    for (family, eps, d, b) in
        [(0usize, 2.0, 6u32, 2u32), (1, 1.0, 5, 3), (2, 3.0, 4, 1), (3, 1.5, 6, 2), (0, 4.0, 5, 0)]
    {
        let kernel = build_kernel(family, eps, d, b);
        let counts = random_weights(kernel.n_out(), 99)
            .iter()
            .map(|x| (x * 50.0).round())
            .collect::<Vec<_>>();
        let params = EmParams { max_iters: 40, rel_tol: 0.0, gain_tol: 0.0 };
        let fft = kernel.fft_channel(None);
        let dense = kernel.channel();
        let smoother = |f: &mut [f64]| smooth_2d(d as usize, f);
        for (post, smooth) in [("EM", None), ("EMS", Some(&smoother as &dyn Fn(&mut [f64])))] {
            let spectral = expectation_maximization(
                &fft,
                &counts,
                None,
                smooth,
                params,
                &mut EmWorkspace::new(),
            )
            .estimate;
            let reference = expectation_maximization(
                &dense,
                &counts,
                None,
                smooth,
                params,
                &mut EmWorkspace::new(),
            )
            .estimate;
            for (a, b_val) in spectral.iter().zip(&reference) {
                assert!(
                    (a - b_val).abs() <= FFT_TOL,
                    "{} {post}: fft {a} vs dense {b_val}",
                    family_name(family)
                );
            }
        }
    }
}

/// FNV-1a over the spectral operator's output bits on power-of-two
/// grids; see [`fft_channel_matches_pinned_bits`]. Computed before the
/// transform gained radix-3 stages, and unchanged by them.
const FFT_POW2_BITS: u64 = 0x3811_7af0_a790_3a2c;

/// The same fold on `2^a·3^b` grids; see
/// [`fft_channel_2x3_matches_pinned_bits`].
const FFT_2X3_BITS: u64 = 0x0083_c94b_6520_ba2d;

/// FNV-1a fold of every bit the spectral operator produces on the shapes
/// `(d, b̂, n)`: both primitives and a bounded 20-iteration cold EM per
/// shape, then, with `ems`, one EMS run (`smooth_2d` as the EM loop's
/// smoother) at d = 20, b̂ = 4 so the smoother path is folded in too.
fn spectral_bits(shapes: &[(u32, u32, usize)], ems: bool) -> u64 {
    use dam_core::em2d::smooth_2d;

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |values: &[f64]| {
        for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let params = EmParams { max_iters: 20, rel_tol: 0.0, gain_tol: 0.0 };
    for &(d, b_hat, n) in shapes {
        let kernel = DiscreteKernel::dam(3.0, d, b_hat, KernelKind::Shrunken);
        let fft = FftChannel::new(&kernel, None);
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
    if ems {
        let kernel = DiscreteKernel::dam(3.0, 20, 4, KernelKind::Shrunken);
        let counts: Vec<f64> =
            random_weights(kernel.n_out(), 7).iter().map(|x| (x * 20.0).round()).collect();
        let smoother = |f: &mut [f64]| smooth_2d(20, f);
        let ems = expectation_maximization(
            &kernel.fft_channel(None),
            &counts,
            None,
            Some(&smoother),
            params,
            &mut EmWorkspace::new(),
        );
        fold(&ems.estimate);
    }
    h
}

/// Pins the spectral operator bit for bit on power-of-two grids, not
/// just to a tolerance: any change to the radix-2 butterfly order, the
/// twiddles or the inverse scaling moves the hash. Covers the
/// `ingest-1m` / `durable-cluster` shape (d = 20, b̂ = 4, n = 32) and one
/// EMS PostProcess.
#[test]
fn fft_channel_matches_pinned_bits() {
    let h = spectral_bits(&[(20, 4, 32)], true);
    assert_eq!(h, FFT_POW2_BITS, "power-of-two spectral bits moved: {h:#018x}");
}

/// Pins the mixed-radix path the same way: the `stream-fft` shape
/// (d = 64, b̂ = 14: out_d = 92 on n = 96) and a padded grid wider than
/// the output grid (d = 13, b̂ = 5: out_d = 23 on n = 24).
#[test]
fn fft_channel_2x3_matches_pinned_bits() {
    let h = spectral_bits(&[(64, 14, 96), (13, 5, 24)], false);
    assert_eq!(h, FFT_2X3_BITS, "2·3 spectral bits moved: {h:#018x}");
}

/// The pinned 2·3 bits above cover the two-core spectral path: grids of
/// side ≥ `PARALLEL_FFT_MIN_SIDE` (the n = 96 `stream-fft` shape among
/// them) split every convolution across the pool whenever the host has
/// more than one core. On a shape above that threshold (d = 100, b̂ = 14:
/// n = 128) at least two threads must have drained a pool batch at once.
/// (CI runs this suite again under `taskset -c 0`, where the same
/// constants pin the one-plane path.)
#[test]
fn padded_128_channel_runs_on_several_threads() {
    let kernel = DiscreteKernel::dam(3.0, 100, 14, KernelKind::Shrunken);
    let fft = FftChannel::new(&kernel, None);
    assert_eq!(fft.padded_n(), 128);
    assert!(fft.padded_n() > dam_core::fft::PARALLEL_FFT_MIN_SIDE);
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
