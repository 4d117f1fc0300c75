//! Convolution-structured reporting channel (§VI-A exploited for speed).
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
//! both EM primitives collapse to a small stencil plus a rank-one term:
//!
//! * E-step: `(M·f)[o]   = q̂·Σf + Σ_offsets δ·f`  — O(b̂²) per output cell;
//! * M-step: `(Mᵀw)[i]   = q̂·Σw + Σ_offsets δ·w`  — O(b̂²) per input cell.
//!
//! [`ConvChannel`] implements [`ChannelOp`] this way: O(b̂²) storage and
//! O(n_out·b̂²) work per EM iteration instead of the dense operator's
//! O(n_out·n_in) — at `d = 64, b̂ = 8` that is ~26 million multiply-adds
//! down to ~1.9 million, and ~210 MB of matrix down to 2.3 KB of stencil.
//! Rows are processed in parallel (`rayon`) when the grid is large enough
//! for threading to pay off.
//!
//! [`FftChannel`] is the *spectral* sibling for the large-radius regime:
//! the same `δ + far-field` split, but the δ-convolutions are evaluated as
//! circular convolutions on a zero-padded `next_pow2(d + 2b̂)` grid via
//! [`crate::fft::Fft2d`], with the kernel spectrum computed **once** at
//! construction and reused by every EM iteration. That turns the
//! per-iteration cost from O(n_out·b̂²) into O(n² log n), which wins once
//! b̂ clears the measured crossover (`EmBackend::Auto` applies the
//! [`crate::tuning`] cost model; see `BENCH_em.json` for the numbers).
//!
//! The dense [`Channel`](dam_fo::em::Channel) remains available as the
//! reference implementation; property tests assert the stencil agrees
//! with it to ≤ 1e-12 and the spectral operator to ≤ 1e-9 on every kernel
//! family, including the `b̂ = 0` degenerate randomized-response kernel
//! and non-power-of-two grid sides.

use crate::fft::{spectrum_mul, spectrum_mul_conj, Fft2d};
use crate::kernel::DiscreteKernel;
use crate::tuning::PARALLEL_WORK_THRESHOLD;
use dam_fo::em::{ChannelOp, EmWorkspace};
use rayon::prelude::*;

/// A translation-invariant channel stored as a `(2b̂+1)²` stencil plus the
/// scalar far-field mass — the convolution-structured [`ChannelOp`].
#[derive(Debug, Clone)]
pub struct ConvChannel {
    /// Input grid side.
    d: usize,
    /// Output grid side (`d + 2b̂`).
    out_d: usize,
    /// Stencil side (`2b̂+1`).
    side: usize,
    /// `offset_mass − far_mass`, row-major from offset `(−b̂, −b̂)`.
    delta: Vec<f64>,
    /// Far-field mass `q̂`.
    far: f64,
    /// Threads a sweep above [`PARALLEL_WORK_THRESHOLD`] runs on, resolved
    /// once here: asking the pool per sweep costs an
    /// `available_parallelism` call (~22 µs on a 2-vCPU host).
    threads: usize,
}

impl ConvChannel {
    /// Builds the convolution operator for a kernel. O(b̂²).
    pub fn new(kernel: &DiscreteKernel) -> Self {
        let far = kernel.q_hat();
        let delta = kernel.offset_masses().iter().map(|&m| m - far).collect();
        Self {
            d: kernel.d() as usize,
            out_d: kernel.out_d() as usize,
            side: kernel.box_side(),
            delta,
            far,
            threads: rayon::current_num_threads(),
        }
    }

    /// Disk radius in cells.
    #[inline]
    pub fn b_hat(&self) -> usize {
        (self.side - 1) / 2
    }

    /// Far-field mass `q̂`.
    #[inline]
    pub fn far_mass(&self) -> f64 {
        self.far
    }

    /// One output row of the E-step: `row[ox] = q̂·Σf + Σ_box δ·f`.
    fn apply_row(&self, f: &[f64], far_term: f64, oy: usize, row: &mut [f64]) {
        let (d, side) = (self.d, self.side);
        let b2 = side - 1; // 2b̂
                           // Input rows iy with 0 ≤ oy − iy ≤ 2b̂, clamped to the grid.
        let iy_lo = oy.saturating_sub(b2);
        let iy_hi = oy.min(d - 1);
        for (ox, cell) in row.iter_mut().enumerate() {
            let ix_lo = ox.saturating_sub(b2);
            let ix_hi = ox.min(d - 1);
            let mut s = 0.0;
            for iy in iy_lo..=iy_hi {
                let delta_row = &self.delta[(oy - iy) * side..(oy - iy + 1) * side];
                let f_row = &f[iy * d..(iy + 1) * d];
                for ix in ix_lo..=ix_hi {
                    s += delta_row[ox - ix] * f_row[ix];
                }
            }
            *cell = far_term + s;
        }
    }

    /// One input row of the M-step: `row[ix] = f[i]·(q̂·Σw + Σ_box δ·w)`.
    ///
    /// Every box offset lands inside the dilated output grid, so unlike
    /// [`Self::apply_row`] no boundary clamping is needed.
    fn adjoint_row(&self, w: &[f64], f: &[f64], far_term: f64, iy: usize, row: &mut [f64]) {
        let (d, out_d, side) = (self.d, self.out_d, self.side);
        for (ix, cell) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for j in 0..side {
                let w_row = &w[(iy + j) * out_d + ix..(iy + j) * out_d + ix + side];
                let delta_row = &self.delta[j * side..(j + 1) * side];
                for k in 0..side {
                    s += delta_row[k] * w_row[k];
                }
            }
            *cell = f[iy * d + ix] * (far_term + s);
        }
    }

    #[inline]
    fn stencil_flops(&self) -> usize {
        crate::tuning::stencil_flops(self.out_d, self.side)
    }
}

impl ChannelOp for ConvChannel {
    #[inline]
    fn n_in(&self) -> usize {
        self.d * self.d
    }

    #[inline]
    fn n_out(&self) -> usize {
        self.out_d * self.out_d
    }

    fn apply(&self, f: &[f64], out: &mut [f64], _ws: &mut EmWorkspace) {
        debug_assert_eq!(f.len(), self.n_in());
        debug_assert_eq!(out.len(), self.n_out());
        let far_term = self.far * f.iter().sum::<f64>();
        if self.stencil_flops() < PARALLEL_WORK_THRESHOLD {
            for (oy, row) in out.chunks_mut(self.out_d).enumerate() {
                self.apply_row(f, far_term, oy, row);
            }
        } else {
            out.par_chunks_mut(self.out_d)
                .with_threads(Some(self.threads))
                .enumerate()
                .for_each(|(oy, row)| self.apply_row(f, far_term, oy, row));
        }
    }

    fn accumulate_adjoint(&self, w: &[f64], f: &[f64], f_new: &mut [f64], _ws: &mut EmWorkspace) {
        debug_assert_eq!(w.len(), self.n_out());
        debug_assert_eq!(f.len(), self.n_in());
        debug_assert_eq!(f_new.len(), self.n_in());
        let far_term = self.far * w.iter().sum::<f64>();
        if self.stencil_flops() < PARALLEL_WORK_THRESHOLD {
            for (iy, row) in f_new.chunks_mut(self.d).enumerate() {
                self.adjoint_row(w, f, far_term, iy, row);
            }
        } else {
            f_new
                .par_chunks_mut(self.d)
                .with_threads(Some(self.threads))
                .enumerate()
                .for_each(|(iy, row)| self.adjoint_row(w, f, far_term, iy, row));
        }
    }
}

/// The spectral [`ChannelOp`]: same `δ + far-field` decomposition as
/// [`ConvChannel`], with the δ-convolutions evaluated in the frequency
/// domain.
///
/// * **E-step** `M·f`: `f` is zero-padded onto the `n × n` grid
///   (`n = next_pow2(d + 2b̂)`), transformed, multiplied by the cached
///   kernel spectrum, and inverted; the linear-convolution support
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
/// [`PARALLEL_FFT_MIN_SIDE`](crate::tuning::PARALLEL_FFT_MIN_SIDE) that
/// plane is cut into column-block planes and each primitive runs as one
/// pool batch across the cores counted when the channel was built, with
/// the same bits as the serial path.
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
    /// and transforms it once. O(n² log n) setup.
    pub fn new(kernel: &DiscreteKernel) -> Self {
        let d = kernel.d() as usize;
        let out_d = kernel.out_d() as usize;
        let side = kernel.box_side();
        let far = kernel.q_hat();
        let fft = Fft2d::new(out_d).with_threads(rayon::current_num_threads());
        let delta: Vec<f64> = kernel.offset_masses().iter().map(|&m| m - far).collect();
        let kspec = fft.kernel_spectrum(&delta, side);
        Self { d, out_d, far, fft, kspec }
    }

    /// Padded transform side `n = next_pow2(d + 2b̂)`.
    #[inline]
    pub fn padded_n(&self) -> usize {
        self.fft.n()
    }

    /// Far-field mass `q̂`.
    #[inline]
    pub fn far_mass(&self) -> f64 {
        self.far
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

    fn random_f(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-3).collect();
        let s: f64 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect()
    }

    #[test]
    fn apply_matches_dense_on_dam_kernel() {
        let kernel = DiscreteKernel::dam(2.0, 6, 2, KernelKind::Shrunken);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        let f = random_f(conv.n_in(), 1);
        let mut ws = EmWorkspace::new();
        let mut out_dense = vec![0.0; conv.n_out()];
        let mut out_conv = vec![0.0; conv.n_out()];
        dense.apply(&f, &mut out_dense, &mut ws);
        conv.apply(&f, &mut out_conv, &mut ws);
        for (o, (a, b)) in out_dense.iter().zip(&out_conv).enumerate() {
            assert!((a - b).abs() < 1e-14, "output {o}: {a} vs {b}");
        }
        // The image of a distribution is a distribution.
        assert!((out_conv.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn adjoint_matches_dense_on_huem_kernel() {
        let kernel = DiscreteKernel::huem(1.5, 5, 3);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        let f = random_f(conv.n_in(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w: Vec<f64> = (0..conv.n_out()).map(|_| rng.gen::<f64>()).collect();
        let mut ws = EmWorkspace::new();
        let mut a = vec![0.0; conv.n_in()];
        let mut b = vec![0.0; conv.n_in()];
        dense.accumulate_adjoint(&w, &f, &mut a, &mut ws);
        conv.accumulate_adjoint(&w, &f, &mut b, &mut ws);
        for i in 0..conv.n_in() {
            assert!((a[i] - b[i]).abs() < 1e-14, "input {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn degenerate_b_zero_matches_dense() {
        let kernel = DiscreteKernel::dam(5.0, 7, 0, KernelKind::Shrunken);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        assert_eq!(conv.n_out(), conv.n_in(), "no dilation at b̂ = 0");
        let f = random_f(conv.n_in(), 4);
        let mut ws = EmWorkspace::new();
        let mut out_dense = vec![0.0; conv.n_out()];
        let mut out_conv = vec![0.0; conv.n_out()];
        dense.apply(&f, &mut out_dense, &mut ws);
        conv.apply(&f, &mut out_conv, &mut ws);
        for o in 0..conv.n_out() {
            assert!((out_dense[o] - out_conv[o]).abs() < 1e-14, "output {o}");
        }
    }

    #[test]
    fn fft_channel_matches_stencil_on_all_primitives() {
        // Non-power-of-two d, so the padded grid (32) strictly contains
        // the output grid (23) and the wrap-free regions are exercised.
        let kernel = DiscreteKernel::dam(2.5, 13, 5, KernelKind::Shrunken);
        let conv = ConvChannel::new(&kernel);
        let fftc = FftChannel::new(&kernel);
        assert_eq!(fftc.padded_n(), 32);
        assert_eq!((conv.n_in(), conv.n_out()), (fftc.n_in(), fftc.n_out()));
        let mut ws = EmWorkspace::new();
        let f = random_f(conv.n_in(), 11);
        let mut a = vec![0.0; conv.n_out()];
        let mut b = vec![0.0; conv.n_out()];
        conv.apply(&f, &mut a, &mut ws);
        fftc.apply(&f, &mut b, &mut ws);
        for o in 0..conv.n_out() {
            assert!((a[o] - b[o]).abs() < 1e-12, "apply {o}: {} vs {}", a[o], b[o]);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let w: Vec<f64> = (0..conv.n_out()).map(|_| rng.gen::<f64>()).collect();
        let mut fa = vec![0.0; conv.n_in()];
        let mut fb = vec![0.0; conv.n_in()];
        conv.accumulate_adjoint(&w, &f, &mut fa, &mut ws);
        fftc.accumulate_adjoint(&w, &f, &mut fb, &mut ws);
        for i in 0..conv.n_in() {
            assert!((fa[i] - fb[i]).abs() < 1e-12, "adjoint {i}: {} vs {}", fa[i], fb[i]);
        }
    }

    #[test]
    fn fft_channel_handles_degenerate_zero_radius() {
        let kernel = DiscreteKernel::dam(5.0, 7, 0, KernelKind::Shrunken);
        let conv = ConvChannel::new(&kernel);
        let fftc = FftChannel::new(&kernel);
        assert_eq!(fftc.n_out(), fftc.n_in(), "no dilation at b̂ = 0");
        let mut ws = EmWorkspace::new();
        let f = random_f(conv.n_in(), 5);
        let mut a = vec![0.0; conv.n_out()];
        let mut b = vec![0.0; conv.n_out()];
        conv.apply(&f, &mut a, &mut ws);
        fftc.apply(&f, &mut b, &mut ws);
        for o in 0..conv.n_out() {
            assert!((a[o] - b[o]).abs() < 1e-12, "output {o}");
        }
    }

    #[test]
    fn fft_em_fixpoint_matches_stencil() {
        let kernel = DiscreteKernel::huem(1.5, 10, 4);
        let conv = ConvChannel::new(&kernel);
        let fftc = FftChannel::new(&kernel);
        let counts: Vec<f64> = (0..conv.n_out()).map(|o| ((o * 11) % 17) as f64).collect();
        let params = EmParams { max_iters: 60, rel_tol: 0.0, gain_tol: 0.0 };
        let fc =
            expectation_maximization(&conv, &counts, None, None, params, &mut EmWorkspace::new())
                .estimate;
        let ff =
            expectation_maximization(&fftc, &counts, None, None, params, &mut EmWorkspace::new())
                .estimate;
        for i in 0..conv.n_in() {
            assert!((fc[i] - ff[i]).abs() < 1e-9, "bin {i}: {} vs {}", fc[i], ff[i]);
        }
    }

    #[test]
    fn em_fixpoints_agree_with_dense() {
        let kernel = DiscreteKernel::dam(3.0, 6, 2, KernelKind::NonShrunken);
        let dense = kernel.channel();
        let conv = ConvChannel::new(&kernel);
        let counts: Vec<f64> = (0..conv.n_out()).map(|o| ((o * 7) % 13) as f64).collect();
        let params = EmParams { max_iters: 80, rel_tol: 0.0, gain_tol: 0.0 };
        let fd =
            expectation_maximization(&dense, &counts, None, None, params, &mut EmWorkspace::new())
                .estimate;
        let fc =
            expectation_maximization(&conv, &counts, None, None, params, &mut EmWorkspace::new())
                .estimate;
        for i in 0..conv.n_in() {
            assert!((fd[i] - fc[i]).abs() < 1e-12, "bin {i}: {} vs {}", fd[i], fc[i]);
        }
    }

    #[test]
    fn large_grid_never_materialises_the_matrix() {
        // d = 64, b̂ = 8: the dense matrix would be 5184² × 4096 ≈ 210 MB;
        // the conv operator stores a 17×17 stencil and still runs EM.
        let kernel = DiscreteKernel::dam(3.5, 64, 8, KernelKind::Shrunken);
        let conv = ConvChannel::new(&kernel);
        assert_eq!(conv.delta.len(), 17 * 17);
        let mut counts = vec![1.0; conv.n_out()];
        counts[40 * 80 + 40] = 500.0;
        let f = expectation_maximization(
            &conv,
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
