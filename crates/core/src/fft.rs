//! In-repo iterative real 2-D FFT — the engine behind the spectral EM
//! backend ([`crate::conv::FftChannel`]).
//!
//! # Algorithm
//!
//! [`Fft2d`] is a fixed-size plan for power-of-two side `n`: twiddle and
//! bit-reversal tables are computed once at construction and shared by
//! every transform, so per-call work is pure butterflies. The complex 1-D
//! kernel is an in-place iterative radix-2 Cooley–Tukey
//! (decimation-in-time: bit-reverse permute, then `log₂ n` butterfly
//! stages); complex values are stored interleaved (`re, im`) in plain
//! `&[f64]` buffers so callers can park scratch in an
//! [`dam_fo::em::EmWorkspace`] without a dedicated complex type.
//!
//! # Why a *real* FFT halves the work
//!
//! Every signal in the EM pipeline (estimate, weights, kernel stencil) is
//! real, so its spectrum is Hermitian: `S[-k] = conj(S[k])`. The row pass
//! exploits this twice. First, a length-`n` real transform is computed as
//! one length-`n/2` *complex* transform of the even/odd interleaving
//! (`z[j] = x[2j] + i·x[2j+1]`) plus an O(n) untangling step — half the
//! butterflies of a padded complex transform. Second, only the
//! `n/2 + 1` non-redundant row frequencies are kept, so the column pass
//! runs `n/2 + 1` length-`n` transforms instead of `n`. Together the 2-D
//! transform does half the complex-FFT work, and the spectra it trades in
//! are half-size, which also halves the per-iteration multiply cost.
//!
//! # Layout
//!
//! A spectrum is one row-major half-spectrum: `n` rows (column frequency
//! `ky`), each holding the `n/2 + 1` interleaved complex row frequencies
//! `kx`, so `S[ky, kx]` lives at `spec[ky·(n + 2) + 2·kx]`. A row's real
//! transform runs in place in its own row — the `n + 2` floats hold the
//! `n` reals before and the half-spectrum after. The column pass runs
//! each butterfly between two *whole rows*: one twiddle, then a
//! contiguous sweep over the `n/2 + 1` column frequencies. One
//! `n × (n + 2)` buffer is thus the only scratch a transform pair needs.
//! (Plans split across threads cut the same floats into column-block
//! planes; see [below](#two-cores-on-large-grids).)
//!
//! Rows that are all zero are never transformed ([`Fft2d::forward`]
//! writes `+0.0` into them), and rows the caller never reads back are
//! never inverted ([`Fft2d::inverse`] takes the row count). Every other
//! element gets exactly the butterflies, twiddles and operation order of
//! a transform of the whole padded grid. A transformed zero row would be
//! zero too, up to the sign of some zero imaginary parts, and a zero's
//! sign can only reach results that are themselves zero — so the EM
//! estimates stay bit-identical (pinned by the `conv_equivalence` suite).
//!
//! # Padding scheme
//!
//! Convolutions are evaluated circularly on a `next_pow2(d + 2b̂)` grid.
//! The EM primitives need *linear* convolution values on `[0, d + 2b̂)`
//! per axis (E-step) or `[0, d)` shifted by the kernel anchor (M-step,
//! evaluated through the conjugate spectrum); in both cases the linear
//! support fits inside the padded period, so the circular wrap never
//! contaminates the cells that are read back — equivalence with the
//! dense operator is exact up to roundoff (tested to ≤ 1e-9).
//!
//! # Two cores on large grids
//!
//! A plan built [`Fft2d::with_threads`] on a grid of side at least
//! [`PARALLEL_FFT_MIN_SIDE`] runs each [`Fft2d::convolve`] as one
//! [`rayon::pool::run_phases`] batch. Its spectrum is cut by column
//! frequency into one contiguous **column-block plane** per thread: plane
//! `p` holds all `n` rows of the frequencies `kx ∈ [c_p, c_{p+1})`, so the
//! planes together are exactly the floats of the row-major half-spectrum
//! (no memory is added), and the cached kernel spectrum is laid out the
//! same way. The batch has three phases:
//!
//! 1. forward row transforms over row blocks, each transformed row written
//!    into every plane — plus, as the first unit, the sum of the source
//!    that the far-field term needs (a serial add chain that the other
//!    thread's row transforms overlap);
//! 2. per plane, the forward column pass, the kernel product and the
//!    inverse column pass — columns are independent, so these need no
//!    barrier between them;
//! 3. inverse row transforms of only the rows read back, each finished
//!    straight into the caller's output.
//!
//! The column pass inside a plane is the whole-row butterfly above, on a
//! narrower row, so every element still gets the same butterflies,
//! twiddles, product and operation order: split and serial plans give the
//! same bits (`split_convolution_matches_serial_bits` below, and the
//! pinned `conv_equivalence` constants, which CI checks both on two cores
//! and under `taskset -c 0`). A row unit keeps its row scratch on its own
//! stack. Two other layouts measured slower: splitting the column pass by
//! column ranges inside shared rows ran ~3× slower per element on both
//! threads in a prototype (coherence traffic the prefetchers drive across
//! the range boundary), and scratch rows packed side by side in one shared buffer
//! cost the row phases ~1.7× per element.
//!
//! The two convolutions of one EM iteration (apply + adjoint) on a
//! 2-vCPU x86-64 host, serial vs split, medians of 31 interleaved
//! samples: 40.7 vs 72.3 µs at n = 32 (d = 20, b̂ = 4), 158 vs 155 µs at
//! n = 64 (d = 40, b̂ = 8), 672 vs 466 µs at n = 128 (d = 64, b̂ = 14;
//! 1.44×) and 3090 vs 1831 µs at n = 256 (d = 128, b̂ = 20; 1.69×).
//! Below the crossover the serial path runs as before.
//!
//! An earlier measurement had put the row passes on the pool and found
//! them slower (603 vs 431 µs per iteration at n = 128). It was
//! confounded: each `pool::run(.., None, ..)` asks
//! [`rayon::current_num_threads`], and that `available_parallelism` call
//! reads cgroup files — 21.7 µs per call on that host, about eight calls
//! per iteration, the whole gap. Split plans resolve their thread count
//! once, when they are built.

use crate::tuning::{next_pow2, PARALLEL_FFT_MIN_SIDE};
use rayon::pool::Tiles;
use std::sync::atomic::{AtomicU64, Ordering};

/// Precomputed tables for one in-place complex FFT size.
#[derive(Debug, Clone)]
struct CfftPlan {
    /// Transform length (number of complex samples); power of two.
    n: usize,
    /// Bit-reversal permutation, `rev[i] < n`.
    rev: Vec<u32>,
    /// Forward twiddles `e^{-2πik/n}` for `k ∈ [0, n/2)`, interleaved.
    tw: Vec<f64>,
}

impl CfftPlan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| if bits == 0 { 0 } else { i.reverse_bits() >> (32 - bits) })
            .collect();
        let mut tw = Vec::with_capacity(n.max(2));
        for k in 0..(n / 2).max(1) {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            tw.push(angle.cos());
            tw.push(angle.sin());
        }
        Self { n, rev, tw }
    }

    /// In-place complex FFT over `n` elements of `width` floats each
    /// (`n · width` floats). `width = 2` is the 1-D transform of one
    /// interleaved sequence; a wider element is a whole spectrum row, and
    /// every complex value in it gets the same butterfly — `width / 2`
    /// independent transforms that share each twiddle load and run as one
    /// contiguous sweep. `inverse` conjugates the twiddles but does
    /// **not** scale — callers fold the `1/n` factors into their final
    /// pass exactly once.
    ///
    /// Always inlined so the 1-D call sites compile with `width = 2`
    /// known (an out-of-line call measured ~20% slower per EM iteration).
    /// Indexing inside each block measured ~2× faster on a 64-point row
    /// transform than zipping per-element chunk iterators, whose set-up
    /// cost dominates the one- and two-butterfly blocks of the early
    /// stages.
    #[inline(always)]
    fn transform(&self, data: &mut [f64], width: usize, inverse: bool) {
        let n = self.n;
        debug_assert_eq!(data.len(), n * width);
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                let (lo, hi) = data.split_at_mut(j * width);
                lo[i * width..(i + 1) * width].swap_with_slice(&mut hi[..width]);
            }
        }
        let mut len = 2;
        while len <= n {
            let (half, step) = (len / 2, n / len);
            for block in data.chunks_exact_mut(len * width) {
                let (lo, hi) = block.split_at_mut(half * width);
                for j in 0..half {
                    let k = 2 * j * step;
                    let (wr, wi) =
                        (self.tw[k], if inverse { -self.tw[k + 1] } else { self.tw[k + 1] });
                    let a = &mut lo[j * width..(j + 1) * width];
                    let b = &mut hi[j * width..(j + 1) * width];
                    for c in (0..width).step_by(2) {
                        let (br, bi) = (b[c], b[c + 1]);
                        let tr = wr * br - wi * bi;
                        let ti = wr * bi + wi * br;
                        b[c] = a[c] - tr;
                        b[c + 1] = a[c + 1] - ti;
                        a[c] += tr;
                        a[c + 1] += ti;
                    }
                }
            }
            len <<= 1;
        }
    }
}

/// Row blocks a split convolution cuts the grid into: the units of its
/// row phases, and of each plane's tiles. Sixteen measured faster than
/// eight at n = 128: the helper thread wakes after the caller has started,
/// and smaller units still leave it half of each row phase.
const ROW_BLOCKS: usize = 16;

/// Floats of row scratch a split convolution's row units keep on the
/// stack (rows of grids up to `n = 1024`).
const STACK_ROW: usize = 1026;

/// Runs `f` on `len` floats of row scratch: on the stack up to
/// [`STACK_ROW`] floats, so it stays in the running core's cache and
/// shares no cache line with another thread's row.
fn with_row_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if len <= STACK_ROW {
        f(&mut [0.0; STACK_ROW][..len])
    } else {
        f(&mut vec![0.0; len])
    }
}

/// The column-block plane layout of a convolution split across threads
/// (see the [module docs](self)).
#[derive(Debug, Clone)]
struct PlaneSplit {
    /// Threads a convolution runs on, resolved when the plan was built.
    threads: usize,
    /// Complex column bounds: plane `p` holds the frequencies
    /// `cols[p]..cols[p + 1]` of every row.
    cols: Vec<usize>,
    /// Spectrum tile bounds: tile `p·ROW_BLOCKS + b` is row block `b` of
    /// plane `p`.
    tiles: Vec<usize>,
}

impl PlaneSplit {
    fn new(n: usize, threads: usize) -> Self {
        let (cols_n, block) = (n / 2 + 1, n / ROW_BLOCKS);
        let planes = threads.min(rayon::pool::MAX_TILES / ROW_BLOCKS).min(cols_n);
        let cols: Vec<usize> = (0..=planes).map(|p| p * cols_n / planes).collect();
        let mut tiles = vec![0];
        for p in 0..planes {
            let width = 2 * (cols[p + 1] - cols[p]);
            tiles.extend((1..=ROW_BLOCKS).map(|b| 2 * n * cols[p] + b * block * width));
        }
        Self { threads, cols, tiles }
    }

    fn planes(&self) -> usize {
        self.cols.len() - 1
    }

    /// Float range of plane `p`'s rows within a row: its slice of every
    /// row-major spectrum row.
    fn row_span(&self, p: usize) -> std::ops::Range<usize> {
        2 * self.cols[p]..2 * self.cols[p + 1]
    }
}

/// A reusable plan for real 2-D FFTs on an `n × n` power-of-two grid.
///
/// Spectra use the row-major half-spectrum layout described in the
/// [module docs](self): `n` rows of `n/2 + 1` interleaved complex values.
/// A plan built [`Fft2d::with_threads`] on a large enough grid keeps its
/// kernel spectra and [`Fft2d::convolve`] scratch in column-block planes
/// instead.
#[derive(Debug, Clone)]
pub struct Fft2d {
    n: usize,
    half: usize,
    /// Column-pass complex FFT (size `n`).
    full: CfftPlan,
    /// Row-pass complex FFT (size `n/2`, the real-FFT split).
    halfplan: CfftPlan,
    /// Untangle twiddles `e^{-2πik/n}` for `k ∈ [0, n/2]`, interleaved.
    unt: Vec<f64>,
    /// Plane layout of [`Fft2d::convolve`]; `None` runs it serially in
    /// the row-major layout.
    split: Option<PlaneSplit>,
}

impl Fft2d {
    /// Plans transforms for the smallest power-of-two grid with side
    /// ≥ `min_side` (at least 2).
    pub fn new(min_side: usize) -> Self {
        let n = next_pow2(min_side);
        let half = n / 2;
        let mut unt = Vec::with_capacity(2 * (half + 1));
        for k in 0..=half {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            unt.push(angle.cos());
            unt.push(angle.sin());
        }
        Self { n, half, full: CfftPlan::new(n), halfplan: CfftPlan::new(half), unt, split: None }
    }

    /// The same plan, with [`Self::convolve`] split across `threads`
    /// cores when the grid is at least [`PARALLEL_FFT_MIN_SIDE`] on a
    /// side; smaller grids, or one thread, keep the serial path.
    pub fn with_threads(self, threads: usize) -> Self {
        if threads > 1 && self.n >= PARALLEL_FFT_MIN_SIDE {
            self.split_across(threads)
        } else {
            self
        }
    }

    /// [`Self::with_threads`] without the size gate (at least
    /// `ROW_BLOCKS` rows, so every row block holds one).
    fn split_across(mut self, threads: usize) -> Self {
        if threads > 1 && self.n >= ROW_BLOCKS {
            self.split = Some(PlaneSplit::new(self.n, threads));
        }
        self
    }

    /// Padded grid side.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Floats in a half-spectrum (`n` rows × `n/2 + 1` complex).
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.n * (self.half + 1) * 2
    }

    /// Real FFT of one row in place: `row[..n]` holds the `n` reals on
    /// entry; on return the row holds `half + 1` interleaved complex
    /// frequencies.
    fn rfft_row(&self, row: &mut [f64]) {
        let (n, h) = (self.n, self.half);
        debug_assert_eq!(row.len(), 2 * (h + 1));
        // Even/odd interleave is exactly the memory layout of the reals
        // reinterpreted as h complex numbers.
        self.halfplan.transform(&mut row[..n], 2, false);
        // Untangle Z (length h) into the real spectrum X (length h + 1):
        // X[k] = A - i·w·B with A = (Z[k] + conj(Z[h-k]))/2,
        // B = (Z[k] - conj(Z[h-k]))/2, w = e^{-2πik/n}; Z[h] ≡ Z[0].
        let (z0r, z0i) = (row[0], row[1]);
        row[0] = z0r + z0i;
        row[1] = 0.0;
        row[2 * h] = z0r - z0i;
        row[2 * h + 1] = 0.0;
        let mut k = 1;
        while 2 * k <= h {
            let j = h - k;
            let (zkr, zki) = (row[2 * k], row[2 * k + 1]);
            let (zjr, zji) = (row[2 * j], row[2 * j + 1]);
            let (ar, ai) = ((zkr + zjr) / 2.0, (zki - zji) / 2.0);
            let (br, bi) = ((zkr - zjr) / 2.0, (zki + zji) / 2.0);
            let (wr, wi) = (self.unt[2 * k], self.unt[2 * k + 1]);
            // -i·w·B = (wi·br + wr·bi) - i·... expanded directly:
            let (twr, twi) = (wr * br - wi * bi, wr * bi + wi * br);
            row[2 * k] = ar + twi;
            row[2 * k + 1] = ai - twr;
            // X[h-k] follows from the same pair with conjugated roles.
            let (wjr, wji) = (-wr, wi); // w' = e^{-2πi(h-k)/n} = -conj(w)
            let (bjr, bji) = (-br, bi); // B' = -conj(B)
            let (tjr, tji) = (wjr * bjr - wji * bji, wjr * bji + wji * bjr);
            row[2 * j] = ar + tji;
            row[2 * j + 1] = -ai - tjr;
            k += 1;
        }
    }

    /// Inverse of [`Self::rfft_row`], in place and unscaled by design:
    /// `row` holds `half + 1` interleaved complex frequencies on entry;
    /// on return `row[..n]` holds the `n` reals carrying an extra factor
    /// `n/2` (callers fold the scale into their final copy).
    fn irfft_row_unscaled(&self, row: &mut [f64]) {
        let (n, h) = (self.n, self.half);
        debug_assert_eq!(row.len(), 2 * (h + 1));
        // Retangle X (length h + 1) back into Z (length h), inverting the
        // forward split: with A = (X[k] + conj(X[h-k]))/2 and
        // D = (X[k] - conj(X[h-k]))/2,
        //   Z[k]   = A + i·conj(w)·D          (w = e^{-2πik/n}),
        //   Z[h-k] = conj(A) - conj(i·conj(w)·D).
        let (x0r, x0i) = (row[0], row[1]);
        let (xhr, xhi) = (row[2 * h], row[2 * h + 1]);
        // k = 0: w = 1, so Z[0] = A + i·D directly.
        let (ar, ai) = ((x0r + xhr) / 2.0, (x0i - xhi) / 2.0);
        let (dr, di) = ((x0r - xhr) / 2.0, (x0i + xhi) / 2.0);
        row[0] = ar - di;
        row[1] = ai + dr;
        let mut k = 1;
        while 2 * k <= h {
            let j = h - k;
            let (xkr, xki) = (row[2 * k], row[2 * k + 1]);
            let (xjr, xji) = (row[2 * j], row[2 * j + 1]);
            let (ar, ai) = ((xkr + xjr) / 2.0, (xki - xji) / 2.0);
            let (dr, di) = ((xkr - xjr) / 2.0, (xki + xji) / 2.0);
            let (wr, wi) = (self.unt[2 * k], self.unt[2 * k + 1]);
            // c = conj(w)·D; then i·c = (-c.im, c.re).
            let (cr, ci) = (wr * dr + wi * di, wr * di - wi * dr);
            row[2 * k] = ar - ci;
            row[2 * k + 1] = ai + cr;
            if j != k {
                row[2 * j] = ar + ci;
                row[2 * j + 1] = cr - ai;
            }
            k += 1;
        }
        self.halfplan.transform(&mut row[..n], 2, true);
    }

    /// Forward real 2-D FFT of the zero-padded field `src` (row-major,
    /// `src.len() / src_d ≤ n` rows of `src_d ≤ n` reals) into the
    /// half-spectrum `spec`. Only the source rows are row-transformed;
    /// the rest of `spec` is written `+0.0`.
    pub fn forward(&self, src: &[f64], src_d: usize, spec: &mut [f64]) {
        let (n, rw) = (self.n, 2 * (self.half + 1));
        debug_assert!(src_d <= n && src.len().is_multiple_of(src_d) && src.len() / src_d <= n);
        debug_assert_eq!(spec.len(), self.spectrum_len());
        let (head, tail) = spec.split_at_mut(src.len() / src_d * rw);
        for (src_row, row) in src.chunks_exact(src_d).zip(head.chunks_exact_mut(rw)) {
            self.forward_row(src_row, row);
        }
        tail.fill(0.0);
        self.full.transform(spec, rw, false);
    }

    /// Zero-pads one source row into `row` (`n + 2` floats) and transforms
    /// it in place.
    fn forward_row(&self, src_row: &[f64], row: &mut [f64]) {
        row[..src_row.len()].copy_from_slice(src_row);
        row[src_row.len()..self.n].fill(0.0);
        self.rfft_row(row);
    }

    /// Inverts one column-passed row in place and scales its `n` reals.
    fn inverse_row(&self, row: &mut [f64]) {
        // Unscaled column + row inverses leave a factor n·(n/2).
        let scale = 2.0 / (self.n * self.n) as f64;
        self.irfft_row_unscaled(row);
        for v in &mut row[..self.n] {
            *v *= scale;
        }
    }

    /// Inverse of [`Self::forward`], in place: runs the column pass over
    /// all of `spec`, then inverts and scales only its first `rows` rows
    /// and returns them, `n` reals each. The other rows are left as
    /// column-pass intermediates.
    pub fn inverse<'s>(&self, spec: &'s mut [f64], rows: usize) -> impl Iterator<Item = &'s [f64]> {
        let (n, rw) = (self.n, 2 * (self.half + 1));
        debug_assert_eq!(spec.len(), self.spectrum_len());
        self.full.transform(spec, rw, true);
        for row in spec.chunks_exact_mut(rw).take(rows) {
            self.inverse_row(row);
        }
        let spec: &'s [f64] = spec;
        spec.chunks_exact(rw).take(rows).map(move |row| &row[..n])
    }

    /// The spectrum of the zero-padded field `src` (as for
    /// [`Self::forward`]) in the layout [`Self::convolve`] multiplies by:
    /// row-major, or column-block planes when the plan is split.
    pub fn kernel_spectrum(&self, src: &[f64], src_d: usize) -> Vec<f64> {
        let mut spec = vec![0.0; self.spectrum_len()];
        self.forward(src, src_d, &mut spec);
        let Some(split) = &self.split else { return spec };
        let rw = 2 * (self.half + 1);
        (0..split.planes())
            .flat_map(|p| spec.chunks_exact(rw).flat_map(move |row| &row[split.row_span(p)]))
            .copied()
            .collect()
    }

    /// One circular convolution of the zero-padded field `src` with a
    /// fixed kernel: `kspec` comes from [`Self::kernel_spectrum`], and
    /// `product` ([`spectrum_mul`] or [`spectrum_mul_conj`]) multiplies a
    /// stretch of spectrum by the matching stretch of `kspec`.
    ///
    /// The first `dst.len() / dst_d` rows of the result are read back:
    /// `finish(total, y, row, dst_row)` gets `total = Σ src` (summed in
    /// order), result row `y` (`n` reals) and row `y` of `dst` (`dst_d`
    /// values). `spec` is [`Self::spectrum_len`] floats of scratch.
    ///
    /// On a split plan this is one [`rayon::pool::run_phases`] batch of
    /// three phases: forward row transforms of row blocks, written into
    /// the planes, with the sum of `src` as one more unit; per plane, the
    /// forward column pass, the product and the inverse column pass;
    /// inverse row transforms of the row blocks read back, each finished
    /// into `dst`. Every element gets the butterflies, twiddles and
    /// operation order of the serial path, so the two give the same bits.
    #[allow(clippy::too_many_arguments)]
    pub fn convolve<F>(
        &self,
        src: &[f64],
        src_d: usize,
        kspec: &[f64],
        product: fn(&mut [f64], &[f64]),
        spec: &mut [f64],
        dst: &mut [f64],
        dst_d: usize,
        finish: F,
    ) where
        F: Fn(f64, usize, &[f64], &mut [f64]) + Sync,
    {
        debug_assert_eq!(spec.len(), self.spectrum_len());
        debug_assert_eq!(kspec.len(), self.spectrum_len());
        debug_assert!(dst.len().is_multiple_of(dst_d));
        let rows = dst.len() / dst_d;
        let Some(split) = &self.split else {
            let total = src.iter().sum();
            self.forward(src, src_d, spec);
            product(spec, kspec);
            for (y, (row, dst_row)) in
                self.inverse(spec, rows).zip(dst.chunks_exact_mut(dst_d)).enumerate()
            {
                finish(total, y, row, dst_row);
            }
            return;
        };
        let (n, block, planes) = (self.n, self.n / ROW_BLOCKS, split.planes());
        debug_assert!(src.len() / src_d <= n && rows <= n);
        let spec = Tiles::new(spec, &split.tiles);
        let mut dst_bounds = [0; ROW_BLOCKS + 1];
        for (b, bound) in dst_bounds.iter_mut().enumerate() {
            *bound = (b * block).min(rows) * dst_d;
        }
        let dst = Tiles::new(dst, &dst_bounds);
        // `Σ src` as f64 bits: stored in phase 0, read after its barrier.
        let total = AtomicU64::new(0);
        let tile = |p: usize, b: usize| p * ROW_BLOCKS + b;
        let units = [1 + ROW_BLOCKS, planes, rows.div_ceil(block)];
        rayon::pool::run_phases(&units, Some(split.threads), |phase, unit| match (phase, unit) {
            // The source sum, first: a serial add chain that the other
            // thread's row transforms overlap.
            (0, 0) => total.store(src.iter().sum::<f64>().to_bits(), Ordering::Relaxed),
            // Forward row transforms of row block `unit - 1`, each row
            // written into every plane; rows past the source are zero.
            (0, _) => with_row_scratch(2 * (self.half + 1), |row| {
                let b = unit - 1;
                let mut planes_out = spec.lease((0..planes).map(|p| tile(p, b)));
                for r in 0..block {
                    let y = b * block + r;
                    let src_row = src.get(y * src_d..(y + 1) * src_d);
                    if let Some(src_row) = src_row {
                        self.forward_row(src_row, row);
                    }
                    for p in 0..planes {
                        let width = split.row_span(p).len();
                        let out = &mut planes_out.get(tile(p, b)..tile(p, b) + 1)[r * width..];
                        match src_row {
                            Some(_) => out[..width].copy_from_slice(&row[split.row_span(p)]),
                            None => out[..width].fill(0.0),
                        }
                    }
                }
            }),
            // Plane `unit`: column pass, kernel product, inverse column
            // pass — columns are independent, so no barrier.
            (1, _) => {
                let tiles = tile(unit, 0)..tile(unit + 1, 0);
                let mut lease = spec.lease(tiles.clone());
                let plane = lease.get(tiles);
                let span = split.row_span(unit);
                let width = span.len();
                self.full.transform(plane, width, false);
                product(plane, &kspec[n * span.start..n * span.end]);
                self.full.transform(plane, width, true);
            }
            // Inverse row transforms of the rows of block `unit` that are
            // read back, each finished straight into `dst`.
            _ => with_row_scratch(2 * (self.half + 1), |row| {
                let total = f64::from_bits(total.load(Ordering::Relaxed));
                let mut planes_in = spec.lease((0..planes).map(|p| tile(p, unit)));
                let mut dst_lease = dst.lease([unit]);
                let dst_rows = dst_lease.get(unit..unit + 1).chunks_exact_mut(dst_d);
                for (r, dst_row) in dst_rows.enumerate() {
                    for p in 0..planes {
                        let width = split.row_span(p).len();
                        row[split.row_span(p)].copy_from_slice(
                            &planes_in.get(tile(p, unit)..tile(p, unit) + 1)[r * width..][..width],
                        );
                    }
                    self.inverse_row(row);
                    finish(total, unit * block + r, &row[..n], dst_row);
                }
            }),
        });
    }
}

/// Pointwise half-spectrum product `a ⊙ b` into `a` (convolution
/// theorem).
pub fn spectrum_mul(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (pa, pb) in a.chunks_exact_mut(2).zip(b.chunks_exact(2)) {
        let (ar, ai) = (pa[0], pa[1]);
        pa[0] = ar * pb[0] - ai * pb[1];
        pa[1] = ar * pb[1] + ai * pb[0];
    }
}

/// Pointwise half-spectrum product `a ⊙ conj(b)` into `a` (correlation
/// theorem — the adjoint's M-step direction).
pub fn spectrum_mul_conj(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (pa, pb) in a.chunks_exact_mut(2).zip(b.chunks_exact(2)) {
        let (ar, ai) = (pa[0], pa[1]);
        pa[0] = ar * pb[0] + ai * pb[1];
        pa[1] = ai * pb[0] - ar * pb[1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_grid(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n * n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
    }

    /// Direct O(n⁴) 2-D DFT for cross-checking, returning the row-major
    /// half-spectrum layout.
    fn dft2_reference(src: &[f64], n: usize) -> Vec<f64> {
        let (h, rw) = (n / 2, n + 2);
        let mut spec = vec![0.0; n * rw];
        for kx in 0..=h {
            for ky in 0..n {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for y in 0..n {
                    for x in 0..n {
                        let angle =
                            -2.0 * std::f64::consts::PI * ((kx * x) as f64 + (ky * y) as f64)
                                / n as f64;
                        re += src[y * n + x] * angle.cos();
                        im += src[y * n + x] * angle.sin();
                    }
                }
                spec[ky * rw + 2 * kx] = re;
                spec[ky * rw + 2 * kx + 1] = im;
            }
        }
        spec
    }

    fn run_forward(plan: &Fft2d, src: &[f64]) -> Vec<f64> {
        let mut spec = vec![0.0; plan.spectrum_len()];
        plan.forward(src, plan.n(), &mut spec);
        spec
    }

    /// Inverts all `n` rows of `spec` and returns the `n × n` reals.
    fn run_inverse(plan: &Fft2d, spec: &mut [f64]) -> Vec<f64> {
        plan.inverse(spec, plan.n()).flatten().copied().collect()
    }

    #[test]
    fn forward_matches_direct_dft() {
        for n in [2usize, 4, 8, 16] {
            let plan = Fft2d::new(n);
            assert_eq!(plan.n(), n);
            let src = random_grid(n, 7 + n as u64);
            let spec = run_forward(&plan, &src);
            let want = dft2_reference(&src, n);
            for (i, (a, b)) in spec.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9 * (n * n) as f64, "n {n} slot {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for n in [2usize, 4, 8, 32, 64] {
            let plan = Fft2d::new(n);
            let src = random_grid(n, 40 + n as u64);
            let mut spec = run_forward(&plan, &src);
            let back = run_inverse(&plan, &mut spec);
            for (i, (a, b)) in back.iter().zip(&src).enumerate() {
                assert!((a - b).abs() < 1e-12, "n {n} cell {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn short_source_and_partial_inverse_match_the_padded_grid() {
        // A 5 × 3 field on an 8 × 8 plan: skipping its zero rows forward
        // and inverting only the rows read back changes no value.
        let plan = Fft2d::new(8);
        let small = &random_grid(4, 9)[..15];
        let mut pad = vec![0.0; 64];
        for (y, row) in small.chunks_exact(3).enumerate() {
            pad[y * 8..y * 8 + 3].copy_from_slice(row);
        }
        let mut full = run_forward(&plan, &pad);
        let mut spec = vec![f64::NAN; plan.spectrum_len()];
        plan.forward(small, 3, &mut spec);
        assert_eq!(spec, full);
        let back = run_inverse(&plan, &mut full);
        let rows: Vec<&[f64]> = plan.inverse(&mut spec, 5).collect();
        assert_eq!(rows.len(), 5);
        for (y, row) in rows.into_iter().enumerate() {
            assert_eq!(row, &back[y * 8..(y + 1) * 8], "row {y}");
        }
    }

    #[test]
    fn spectrum_product_is_circular_convolution() {
        let n = 8;
        let plan = Fft2d::new(n);
        let a = random_grid(n, 1);
        let b = random_grid(n, 2);
        // Direct circular convolution.
        let mut want = vec![0.0f64; n * n];
        for y in 0..n {
            for x in 0..n {
                let mut s = 0.0;
                for v in 0..n {
                    for u in 0..n {
                        s += a[v * n + u] * b[((y + n - v) % n) * n + (x + n - u) % n];
                    }
                }
                want[y * n + x] = s;
            }
        }
        let mut sa = run_forward(&plan, &a);
        let sb = run_forward(&plan, &b);
        spectrum_mul(&mut sa, &sb);
        let got = run_inverse(&plan, &mut sa);
        for i in 0..n * n {
            assert!((got[i] - want[i]).abs() < 1e-10, "cell {i}: {} vs {}", got[i], want[i]);
        }
    }

    #[test]
    fn conjugate_product_is_circular_correlation() {
        let n = 8;
        let plan = Fft2d::new(n);
        let w = random_grid(n, 3);
        let k = random_grid(n, 4);
        // corr[t] = Σ_s k[s]·w[(t+s) mod n] per axis.
        let mut want = vec![0.0f64; n * n];
        for ty in 0..n {
            for tx in 0..n {
                let mut s = 0.0;
                for sy in 0..n {
                    for sx in 0..n {
                        s += k[sy * n + sx] * w[((ty + sy) % n) * n + (tx + sx) % n];
                    }
                }
                want[ty * n + tx] = s;
            }
        }
        let mut sw = run_forward(&plan, &w);
        let sk = run_forward(&plan, &k);
        spectrum_mul_conj(&mut sw, &sk);
        let got = run_inverse(&plan, &mut sw);
        for i in 0..n * n {
            assert!((got[i] - want[i]).abs() < 1e-10, "cell {i}: {} vs {}", got[i], want[i]);
        }
    }

    /// Runs one convolution of `src` (`src_d` wide) with the kernel `k`
    /// (`k_d` wide) through `plan`, reading back `rows` rows of `dst_d`,
    /// each finished as `row + y·Σ src`.
    #[allow(clippy::too_many_arguments)]
    fn run_convolve(
        plan: &Fft2d,
        src: &[f64],
        src_d: usize,
        k: &[f64],
        k_d: usize,
        product: fn(&mut [f64], &[f64]),
        rows: usize,
        dst_d: usize,
    ) -> Vec<f64> {
        let kspec = plan.kernel_spectrum(k, k_d);
        let mut spec = vec![f64::NAN; plan.spectrum_len()];
        let mut dst = vec![f64::NAN; rows * dst_d];
        plan.convolve(
            src,
            src_d,
            &kspec,
            product,
            &mut spec,
            &mut dst,
            dst_d,
            |total, y, row, out| {
                for (o, &c) in out.iter_mut().zip(row) {
                    *o = c + y as f64 * total;
                }
            },
        );
        dst
    }

    #[test]
    fn split_convolution_matches_serial_bits() {
        // Two to four planes, one-row blocks at n = 16, and the short
        // sources and partial read-backs of the EM primitives (the last
        // shape is `stream-fft`'s E-step).
        for (n, src_d, src_rows, rows, dst_d) in [
            (16, 16, 16, 16, 16),
            (32, 13, 13, 23, 23),
            (32, 23, 23, 13, 13),
            (128, 64, 64, 92, 92),
        ] {
            let serial = Fft2d::new(n);
            let src = &random_grid(n, 3 * n as u64)[..src_rows * src_d];
            let k = &random_grid(n, 5 * n as u64)[..7 * 7];
            for product in [spectrum_mul as fn(&mut [f64], &[f64]), spectrum_mul_conj] {
                let want = run_convolve(&serial, src, src_d, k, 7, product, rows, dst_d);
                for threads in [2, 3, 4, 8] {
                    let split = Fft2d::new(n).split_across(threads);
                    assert!(split.split.is_some());
                    let got = run_convolve(&split, src, src_d, k, 7, product, rows, dst_d);
                    let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "n {n} threads {threads}: split bits differ from serial");
                }
            }
        }
    }

    #[test]
    fn only_large_grids_on_several_threads_split() {
        assert!(Fft2d::new(PARALLEL_FFT_MIN_SIDE).with_threads(2).split.is_some());
        assert!(Fft2d::new(PARALLEL_FFT_MIN_SIDE).with_threads(1).split.is_none());
        assert!(Fft2d::new(PARALLEL_FFT_MIN_SIDE / 2).with_threads(2).split.is_none());
    }

    #[test]
    fn non_pow2_request_rounds_up() {
        let plan = Fft2d::new(23);
        assert_eq!(plan.n(), 32);
        let plan = Fft2d::new(1);
        assert_eq!(plan.n(), 2, "real split needs an even length");
    }
}
