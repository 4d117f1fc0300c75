//! The spectral EM operator (§VI-A exploited for speed).
//!
//! Every discrete SAM kernel is translation invariant: the mass an input
//! cell sends to an output cell depends only on their offset, is an
//! arbitrary value inside the `(2b̂+1)²` box around the input cell, and is
//! the constant far-field mass `q̂` everywhere else. Writing the channel as
//!
//! ```text
//! M[o, i] = q̂ + δ(o − i)        δ supported on the (2b̂+1)² box
//! ```
//!
//! both EM primitives collapse to one convolution plus a rank-one term:
//!
//! * E-step: `(M·f)[o]   = q̂·Σf + (δ ∗ f)[o]`;
//! * M-step: `(Mᵀw)[i]   = q̂·Σw + (δ ⋆ w)[i]` (a correlation).
//!
//! [`FftChannel`] implements [`ChannelOp`] this way: the δ-convolutions
//! are evaluated as circular convolutions on a zero-padded
//! `next_fft_side(d + 2b̂)` grid (the smallest even `2^a·3^b` side that
//! holds the output) via [`crate::fft::Fft2d`], with the kernel spectrum
//! computed **once** at construction and reused by every EM iteration.
//! That is O(n² log n) work per iteration and O(n²) storage instead of
//! the dense operator's O(n_out·n_in) — at `d = 64, b̂ = 8` the dense
//! matrix would be ~210 MB. It is the one production 2-D operator
//! (`BENCH_em.json` records its cost across the d = 64 radius sweep).
//!
//! The dense [`Channel`](dam_fo::em::Channel) remains available as the
//! reference implementation; property tests assert the spectral operator
//! agrees with it to ≤ 1e-9 on every kernel family, including the
//! `b̂ = 0` degenerate randomized-response kernel and non-power-of-two
//! grid sides.

use crate::fft::{spectrum_mul, spectrum_mul_conj, Fft2d};
use crate::kernel::DiscreteKernel;
use dam_fo::em::{ChannelOp, EmWorkspace};

/// The spectral [`ChannelOp`]: the `δ + far-field` decomposition of the
/// [module docs](self), with the δ-convolutions evaluated in the frequency
/// domain.
///
/// * **E-step** `M·f`: `f` is zero-padded onto the `n × n` grid
///   (`n = next_fft_side(d + 2b̂)`, an even `2^a·3^b`), transformed,
///   multiplied by the cached kernel spectrum, and inverted; the
///   linear-convolution support
///   `[0, d + 2b̂)²` fits inside the circular period, so the read-back is
///   exact. The rank-one far-field term `q̂·Σf` stays closed-form.
/// * **M-step** `Mᵀw`: the adjoint is a *correlation*, evaluated through
///   the **conjugate** kernel spectrum — `Σ_s δ[s]·w[t+s]` never wraps
///   because `t + s ≤ d + 2b̂ - 1 < n` on both axes.
///
/// The kernel spectrum is computed **once** here and reused by every EM
/// iteration. Each primitive is one [`Fft2d::convolve`]: it transforms,
/// multiplies and inverts in place in one workspace plane — a single
/// `n × (n + 2)` half-spectrum — so steady-state iterations allocate
/// nothing. On a multi-core host with `n ≥`
/// [`PARALLEL_FFT_MIN_SIDE`](crate::fft::PARALLEL_FFT_MIN_SIDE) that
/// plane is cut into column-block planes and each primitive runs as one
/// pool batch across the threads it was built for, with the same bits as
/// the serial path.
#[derive(Debug, Clone)]
pub struct FftChannel {
    /// Input grid side.
    d: usize,
    /// Output grid side (`d + 2b̂`).
    out_d: usize,
    /// Far-field mass `q̂`.
    far: f64,
    /// Transform plan for the padded grid.
    fft: Fft2d,
    /// Half-spectrum of the δ stencil, computed once per channel.
    kspec: Vec<f64>,
}

impl FftChannel {
    /// Builds the spectral operator for a kernel: extracts the δ stencil
    /// and transforms it once. O(n² log n) setup. `threads` caps the
    /// threads a split transform runs on (`None` = available
    /// parallelism); `Some(1)` keeps every EM primitive serial.
    pub fn new(kernel: &DiscreteKernel, threads: Option<usize>) -> Self {
        let d = kernel.d() as usize;
        let out_d = kernel.out_d() as usize;
        let side = kernel.box_side();
        let far = kernel.q_hat();
        let fft =
            Fft2d::new(out_d).with_threads(threads.unwrap_or_else(rayon::current_num_threads));
        let delta: Vec<f64> = kernel.offset_masses().iter().map(|&m| m - far).collect();
        let kspec = fft.kernel_spectrum(&delta, side);
        Self { d, out_d, far, fft, kspec }
    }

    /// Padded transform side `n = next_fft_side(d + 2b̂)`: 96 at d = 64,
    /// b̂ = 14; 32 at d = 20, b̂ = 4.
    #[inline]
    pub fn padded_n(&self) -> usize {
        self.fft.n()
    }
}

impl ChannelOp for FftChannel {
    #[inline]
    fn n_in(&self) -> usize {
        self.d * self.d
    }

    #[inline]
    fn n_out(&self) -> usize {
        self.out_d * self.out_d
    }

    fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace) {
        debug_assert_eq!(f.len(), self.n_in());
        debug_assert_eq!(out.len(), self.n_out());
        let [spec] = ws.planes([self.fft.spectrum_len()]);
        self.fft.convolve(
            f,
            self.d,
            &self.kspec,
            spectrum_mul,
            spec,
            out,
            self.out_d,
            |total, _, row, out_row| {
                let far_term = self.far * total;
                for (o, &c) in out_row.iter_mut().zip(row) {
                    *o = far_term + c;
                }
            },
        );
    }

    fn accumulate_adjoint(&self, w: &[f64], f: &[f64], f_new: &mut [f64], ws: &mut EmWorkspace) {
        debug_assert_eq!(w.len(), self.n_out());
        debug_assert_eq!(f.len(), self.n_in());
        debug_assert_eq!(f_new.len(), self.n_in());
        let d = self.d;
        let [spec] = ws.planes([self.fft.spectrum_len()]);
        self.fft.convolve(
            w,
            self.out_d,
            &self.kspec,
            spectrum_mul_conj,
            spec,
            f_new,
            d,
            |total, y, row, new_row| {
                let far_term = self.far * total;
                let f_row = &f[y * d..(y + 1) * d];
                for (new, (&fi, &c)) in new_row.iter_mut().zip(f_row.iter().zip(row)) {
                    *new = fi * (far_term + c);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::KernelKind;
    use dam_fo::em::{expectation_maximization, EmParams, EmWorkspace};
    use rand::{Rng, SeedableRng};

    /// Per-cell tolerance against the dense reference: one forward/inverse
    /// transform pair of roundoff.
    const TOL: f64 = 1e-12;

    fn random_f(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-3).collect();
        let s: f64 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect()
    }

    fn assert_apply_matches_dense(kernel: &DiscreteKernel, seed: u64) {
        let dense = kernel.channel();
        let fftc = FftChannel::new(kernel, None);
        assert_eq!((dense.n_in(), dense.n_out()), (fftc.n_in(), fftc.n_out()));
        let f = random_f(fftc.n_in(), seed);
        let mut ws = EmWorkspace::new();
        let mut out_dense = vec![0.0; fftc.n_out()];
        let mut out_fft = vec![0.0; fftc.n_out()];
        dense.apply(&f, &mut out_dense, &mut ws);
        fftc.apply(&f, &mut out_fft, &mut ws);
        for (o, (a, b)) in out_dense.iter().zip(&out_fft).enumerate() {
            assert!((a - b).abs() < TOL, "output {o}: {a} vs {b}");
        }
        // The image of a distribution is a distribution.
        assert!((out_fft.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    fn assert_adjoint_matches_dense(kernel: &DiscreteKernel, seed: u64) {
        let dense = kernel.channel();
        let fftc = FftChannel::new(kernel, None);
        let f = random_f(fftc.n_in(), seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
        let w: Vec<f64> = (0..fftc.n_out()).map(|_| rng.gen::<f64>()).collect();
        let mut ws = EmWorkspace::new();
        let mut a = vec![0.0; fftc.n_in()];
        let mut b = vec![0.0; fftc.n_in()];
        dense.accumulate_adjoint(&w, &f, &mut a, &mut ws);
        fftc.accumulate_adjoint(&w, &f, &mut b, &mut ws);
        for i in 0..fftc.n_in() {
            assert!((a[i] - b[i]).abs() < TOL, "input {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn apply_matches_dense_on_dam_kernel() {
        // Non-power-of-two d, so the padded grid (24 = 8·3) strictly
        // contains the output grid (23) and the wrap-free regions are
        // exercised.
        let kernel = DiscreteKernel::dam(2.5, 13, 5, KernelKind::Shrunken);
        assert_eq!(FftChannel::new(&kernel, None).padded_n(), 24);
        assert_apply_matches_dense(&kernel, 11);
        assert_adjoint_matches_dense(&kernel, 12);
    }

    #[test]
    fn adjoint_matches_dense_on_huem_kernel() {
        assert_adjoint_matches_dense(&DiscreteKernel::huem(1.5, 5, 3), 2);
    }

    #[test]
    fn degenerate_b_zero_matches_dense() {
        let kernel = DiscreteKernel::dam(5.0, 7, 0, KernelKind::Shrunken);
        let fftc = FftChannel::new(&kernel, None);
        assert_eq!(fftc.n_out(), fftc.n_in(), "no dilation at b̂ = 0");
        assert_apply_matches_dense(&kernel, 4);
    }

    #[test]
    fn fft_channel_handles_degenerate_zero_radius() {
        // HUEM's rings vanish with the disk; the M-step must still see
        // the randomized-response channel.
        let kernel = DiscreteKernel::huem(5.0, 7, 0);
        assert_eq!(kernel.out_d(), 7, "no dilation at b̂ = 0");
        assert_adjoint_matches_dense(&kernel, 5);
    }

    #[test]
    fn em_fixpoints_agree_with_dense() {
        for (kernel, max_iters, tol) in [
            (DiscreteKernel::dam(3.0, 6, 2, KernelKind::NonShrunken), 80, 1e-12),
            (DiscreteKernel::huem(1.5, 10, 4), 60, 1e-9),
        ] {
            let dense = kernel.channel();
            let fftc = FftChannel::new(&kernel, None);
            let counts: Vec<f64> = (0..fftc.n_out()).map(|o| ((o * 7) % 13) as f64).collect();
            let params = EmParams { max_iters, rel_tol: 0.0, gain_tol: 0.0 };
            let mut ws = EmWorkspace::new();
            let fd =
                expectation_maximization(&dense, &counts, None, None, params, &mut ws).estimate;
            let ff = expectation_maximization(&fftc, &counts, None, None, params, &mut ws).estimate;
            for i in 0..fftc.n_in() {
                assert!((fd[i] - ff[i]).abs() < tol, "bin {i}: {} vs {}", fd[i], ff[i]);
            }
        }
    }

    #[test]
    fn large_grid_never_materialises_the_matrix() {
        // d = 64, b̂ = 8: the dense matrix would be 6400 × 4096 doubles
        // (≈ 210 MB); the spectral operator stores one half-spectrum of
        // the 17×17 stencil on the 96² padded grid and still runs EM.
        let kernel = DiscreteKernel::dam(3.5, 64, 8, KernelKind::Shrunken);
        let fftc = FftChannel::new(&kernel, None);
        assert_eq!(fftc.padded_n(), 96);
        assert_eq!(fftc.kspec.len(), 96 * (96 + 2));
        let mut counts = vec![1.0; fftc.n_out()];
        counts[40 * 80 + 40] = 500.0;
        let f = expectation_maximization(
            &fftc,
            &counts,
            None,
            None,
            EmParams { max_iters: 25, rel_tol: 1e-9, gain_tol: 0.0 },
            &mut EmWorkspace::new(),
        )
        .estimate;
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(f.iter().all(|&x| x >= 0.0));
    }
}
