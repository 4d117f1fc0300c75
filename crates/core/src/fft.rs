//! In-repo iterative real 2-D FFT — the engine behind the spectral EM
//! operator ([`crate::conv::FftChannel`]).
//!
//! # Algorithm
//!
//! [`Fft2d`] is a fixed-size plan for an even side `n = 2^a·3^b`: twiddle
//! and digit-reversal tables are computed once at construction and shared
//! by every transform, so per-call work is pure butterflies. The complex
//! 1-D kernel is an in-place iterative mixed-radix Cooley–Tukey
//! (decimation-in-time: digit-reverse permute, then the `a` radix-2
//! stages, then `b` radix-3 stages); complex values are stored interleaved
//! (`re, im`) in plain `&[f64]` buffers so callers can park scratch in an
//! [`dam_fo::em::EmWorkspace`] without a dedicated complex type. On a
//! power-of-two side there is no radix-3 stage, and every element gets
//! exactly the radix-2 butterflies, twiddles and order it always had.
//!
//! # Why 2·3 sides
//!
//! The padded side only has to hold the linear convolution (see
//! [below](#padding-scheme)), so the smallest even `2^a·3^b` that does is
//! enough: the `stream-fft` shape (d = 64, b̂ = 14) has a 92-cell output
//! and runs on 96² instead of 128², and d = 256's 374 cells run on 384²
//! instead of 512² — 44% less area per transform. One radix-3 butterfly
//! costs about two radix-2 ones, so the saving is nearly all kept: on a
//! 2-vCPU x86-64 host a 48-point row transform measured 0.67× the 64-point
//! one, and the column pass over the half-spectrum 0.47× (49 columns of
//! 96 against 65 of 128). Sides that are already powers of two, such as
//! d = 20, b̂ = 4's 32, keep their plan.
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
//! Convolutions are evaluated circularly on a
//! [`next_fft_side`]`(d + 2b̂)` grid: the smallest even `2^a·3^b` side
//! that holds the output grid.
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
//! 2-vCPU x86-64 host, serial vs split, medians of finely interleaved
//! samples: 66.7 vs 98.8 µs at n = 48 (d = 32, b̂ = 8), 162.8 vs 178.0 µs
//! at n = 72 (d = 48, b̂ = 12), 295.6 vs 257.9 µs at n = 96 (d = 64,
//! b̂ = 14) and 570.9 vs 491.8 µs at n = 128 (d = 100, b̂ = 14); the
//! threshold's docs list the spread across runs. Row blocks hold
//! `n / ROW_BLOCKS` rows, rounded per block when 16 does not divide `n`.
//! Below the crossover the serial path runs as before.
//!
//! An earlier measurement had put the row passes on the pool and found
//! them slower (603 vs 431 µs per iteration at n = 128). It was
//! confounded: each `pool::run(.., None, ..)` asks
//! [`rayon::current_num_threads`], and that `available_parallelism` call
//! reads cgroup files — 21.7 µs per call on that host, about eight calls
//! per iteration, the whole gap. Split plans resolve their thread count
//! once, when they are built.

use rayon::pool::Tiles;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest padded side `n` at which a spectral convolution
/// ([`Fft2d::convolve`]) splits across threads.
///
/// Measured on a 2-vCPU x86-64 host, the two convolutions of one EM
/// iteration (apply + adjoint), serial time over split time (two
/// column-block planes), medians of 310 finely interleaved samples in
/// three runs each: 0.68–0.74× at n = 48 (d = 32, b̂ = 8), 0.86–1.05× at
/// n = 72 (d = 48, b̂ = 12), 1.06–1.15× at n = 96 (d = 64, b̂ = 14) and
/// 1.16–1.38× at n = 128 (d = 100, b̂ = 14). In the `stream-fft`
/// benchmark (n = 96) the split path cut traced `em.us_per_iter` from
/// 365–430 µs to 329–334 µs in three alternating pairs. Earlier, on the
/// radix-2 grids: 0.56× at n = 32, ~1.0× at n = 64, 1.44× at n = 128.
/// The `ingest-1m` and `durable-cluster` shapes (d = 20, n = 32)
/// therefore stay serial, and `stream-fft` splits.
pub const PARALLEL_FFT_MIN_SIDE: usize = 96;

/// Smallest even `2^a·3^b` ≥ `n`, clamped to at least 2 (the real-FFT
/// split needs an even length): the side a spectral grid is planned on
/// ([`Fft2d::new`]). Powers of two map to themselves.
pub fn next_fft_side(n: usize) -> usize {
    let mut side = n.max(2);
    loop {
        let mut odd = side >> side.trailing_zeros();
        while odd.is_multiple_of(3) {
            odd /= 3;
        }
        if side.is_multiple_of(2) && odd == 1 {
            return side;
        }
        side += 1;
    }
}

/// `√3/2`, the imaginary part of the radix-3 butterfly's root of unity.
const SIN_60: f64 = 0.866_025_403_784_438_6;

/// Precomputed tables for one in-place complex FFT size.
#[derive(Debug, Clone)]
struct CfftPlan {
    /// Transform length (number of complex samples): `2^a·3^b`.
    n: usize,
    /// `2^a`: the length the radix-2 stages build up to before the
    /// radix-3 stages take over.
    pow2: usize,
    /// The digit-reversal permutation as swaps `(i, j)`, `i < j`, applied
    /// in order: `k − 1` swaps per `k`-cycle, so one per bit-reversal pair
    /// on a power-of-two plan (digit reversal is not an involution once a
    /// 3 enters, hence the cycles).
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles `e^{-2πik/n}` for `k ∈ [0, n)`, interleaved.
    tw: Vec<f64>,
}

impl CfftPlan {
    fn new(n: usize) -> Self {
        let pow2 = n & n.wrapping_neg();
        debug_assert!({
            let mut odd = n / pow2;
            while odd.is_multiple_of(3) {
                odd /= 3;
            }
            odd == 1
        });
        // Input `i` lands at `pos(i)`: the outermost (last) stages are the
        // radix-3 ones, so the leading digits peeled off are base 3.
        let mut src = vec![0u32; n];
        for i in 0..n {
            let (mut pos, mut rest, mut m) = (0, i, n);
            while m > 1 {
                let r = if m.is_multiple_of(3) { 3 } else { 2 };
                m /= r;
                pos += rest % r * m;
                rest /= r;
            }
            src[pos] = i as u32;
        }
        // Follow each cycle `p → src[p]`: swapping along it leaves every
        // position holding the element it wants.
        let mut swaps = Vec::new();
        let mut seen = vec![false; n];
        for start in 0..n {
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                let next = src[cur] as usize;
                if next != start {
                    swaps.push((cur.min(next) as u32, cur.max(next) as u32));
                }
                cur = next;
            }
        }
        let mut tw = Vec::with_capacity(2 * n);
        for k in 0..n {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            tw.push(angle.cos());
            tw.push(angle.sin());
        }
        Self { n, pow2, swaps, tw }
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
    /// Decimation in time: digit-reverse permute, then the radix-2 stages
    /// up to length `2^a` (on a power-of-two plan these are all of them),
    /// then one radix-3 stage per factor 3.
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
        for &(i, j) in &self.swaps {
            let (i, j) = (i as usize, j as usize);
            let (lo, hi) = data.split_at_mut(j * width);
            lo[i * width..(i + 1) * width].swap_with_slice(&mut hi[..width]);
        }
        let mut len = 2;
        while len <= self.pow2 {
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
        // Radix-3: X[j] = a + b' + c', X[j + m] = a + ω·b' + ω²·c',
        // X[j + 2m] = a + ω²·b' + ω·c' with b', c' the twiddled inputs and
        // ω = e^{∓2πi/3}, so both share a − (b' + c')/2 ∓ i·(√3/2)(b' − c').
        let (sign, sin60) = if inverse { (-1.0, -SIN_60) } else { (1.0, SIN_60) };
        let mut len = 3 * self.pow2;
        while len <= n {
            let (third, step) = (len / 3, n / len);
            for block in data.chunks_exact_mut(len * width) {
                let (s0, rest) = block.split_at_mut(third * width);
                let (s1, s2) = rest.split_at_mut(third * width);
                for j in 0..third {
                    let (k1, k2) = (2 * j * step, 4 * j * step);
                    let (w1r, w1i) = (self.tw[k1], sign * self.tw[k1 + 1]);
                    let (w2r, w2i) = (self.tw[k2], sign * self.tw[k2 + 1]);
                    let a = &mut s0[j * width..(j + 1) * width];
                    let b = &mut s1[j * width..(j + 1) * width];
                    let c = &mut s2[j * width..(j + 1) * width];
                    for e in (0..width).step_by(2) {
                        let (br, bi) = (b[e], b[e + 1]);
                        let (cr, ci) = (c[e], c[e + 1]);
                        let (tbr, tbi) = (w1r * br - w1i * bi, w1r * bi + w1i * br);
                        let (tcr, tci) = (w2r * cr - w2i * ci, w2r * ci + w2i * cr);
                        let (sr, si) = (tbr + tcr, tbi + tci);
                        let (dr, di) = (sin60 * (tbr - tcr), sin60 * (tbi - tci));
                        let (mr, mi) = (a[e] - 0.5 * sr, a[e + 1] - 0.5 * si);
                        a[e] += sr;
                        a[e + 1] += si;
                        b[e] = mr + di;
                        b[e + 1] = mi - dr;
                        c[e] = mr - di;
                        c[e + 1] = mi + dr;
                    }
                }
            }
            len *= 3;
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
    /// Row bounds: row block `b` is rows `rows[b]..rows[b + 1]`
    /// (`b·n / ROW_BLOCKS`, so blocks differ by at most one row).
    rows: [usize; ROW_BLOCKS + 1],
    /// Spectrum tile bounds: tile `p·ROW_BLOCKS + b` is row block `b` of
    /// plane `p`.
    tiles: Vec<usize>,
}

impl PlaneSplit {
    fn new(n: usize, threads: usize) -> Self {
        let cols_n = n / 2 + 1;
        let planes = threads.min(rayon::pool::MAX_TILES / ROW_BLOCKS).min(cols_n);
        let cols: Vec<usize> = (0..=planes).map(|p| p * cols_n / planes).collect();
        let rows = std::array::from_fn(|b| b * n / ROW_BLOCKS);
        let mut tiles = vec![0];
        for p in 0..planes {
            let width = 2 * (cols[p + 1] - cols[p]);
            tiles.extend(rows[1..].iter().map(|&y| 2 * n * cols[p] + y * width));
        }
        Self { threads, cols, rows, tiles }
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

/// A reusable plan for real 2-D FFTs on an `n × n` grid, `n` an even
/// `2^a·3^b`.
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
    /// Plans transforms for the smallest grid with an even `2^a·3^b` side
    /// ≥ `min_side` ([`next_fft_side`]).
    pub fn new(min_side: usize) -> Self {
        let n = next_fft_side(min_side);
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
        let (n, planes) = (self.n, split.planes());
        debug_assert!(src.len() / src_d <= n && rows <= n);
        let spec = Tiles::new(spec, &split.tiles);
        let dst_bounds = split.rows.map(|y| y.min(rows) * dst_d);
        let dst = Tiles::new(dst, &dst_bounds);
        // `Σ src` as f64 bits: stored in phase 0, read after its barrier.
        let total = AtomicU64::new(0);
        let tile = |p: usize, b: usize| p * ROW_BLOCKS + b;
        let read_blocks = split.rows[..ROW_BLOCKS].iter().filter(|&&y| y < rows).count();
        let units = [1 + ROW_BLOCKS, planes, read_blocks];
        rayon::pool::run_phases(&units, Some(split.threads), |phase, unit| match (phase, unit) {
            // The source sum, first: a serial add chain that the other
            // thread's row transforms overlap.
            (0, 0) => total.store(src.iter().sum::<f64>().to_bits(), Ordering::Relaxed),
            // Forward row transforms of row block `unit - 1`, each row
            // written into every plane; rows past the source are zero.
            (0, _) => with_row_scratch(2 * (self.half + 1), |row| {
                let b = unit - 1;
                let mut planes_out = spec.lease((0..planes).map(|p| tile(p, b)));
                for (r, y) in (split.rows[b]..split.rows[b + 1]).enumerate() {
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
                    finish(total, split.rows[unit] + r, &row[..n], dst_row);
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
    fn cfft_matches_naive_dft() {
        // Radix-3 only, mixed 2·3, and 384 = 128·3, each column of a
        // `width / 2`-column element transformed as its own sequence.
        for n in [3usize, 6, 9, 12, 18, 24, 48, 72, 96, 144, 384] {
            let plan = CfftPlan::new(n);
            for width in [2, 10] {
                let mut rng = rand::rngs::StdRng::seed_from_u64((n * width) as u64);
                let x: Vec<f64> = (0..n * width).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                for inverse in [false, true] {
                    let mut got = x.to_vec();
                    plan.transform(&mut got, width, inverse);
                    let sign = if inverse { 2.0 } else { -2.0 };
                    for k in 0..n {
                        for c in (0..width).step_by(2) {
                            let (mut re, mut im) = (0.0f64, 0.0f64);
                            for j in 0..n {
                                let angle =
                                    sign * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                                let (xr, xi) = (x[j * width + c], x[j * width + c + 1]);
                                re += xr * angle.cos() - xi * angle.sin();
                                im += xr * angle.sin() + xi * angle.cos();
                            }
                            let (gr, gi) = (got[k * width + c], got[k * width + c + 1]);
                            assert!(
                                (gr - re).abs() < 1e-9 && (gi - im).abs() < 1e-9,
                                "n {n} width {width} inverse {inverse} k {k} column {c}: \
                                 ({gr}, {gi}) vs ({re}, {im})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_matches_direct_dft() {
        for n in [2usize, 4, 6, 8, 12, 16, 24] {
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
        for n in [2usize, 4, 6, 8, 24, 32, 48, 64, 72, 96] {
            let plan = Fft2d::new(n);
            assert_eq!(plan.n(), n);
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
        // Two to four planes, one-row blocks at n = 16, uneven row
        // blocks at n = 24 and 72, and the short sources and partial
        // read-backs of the EM primitives (the n = 96 shapes are
        // `stream-fft`'s E- and M-step).
        for (n, src_d, src_rows, rows, dst_d) in [
            (16, 16, 16, 16, 16),
            (24, 13, 13, 23, 23),
            (32, 13, 13, 23, 23),
            (32, 23, 23, 13, 13),
            (48, 30, 30, 40, 40),
            (72, 50, 50, 60, 60),
            (96, 64, 64, 92, 92),
            (96, 92, 92, 64, 64),
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
    fn next_fft_side_is_the_next_even_2x3_side() {
        for (n, side) in [(1, 2), (2, 2), (3, 4), (5, 6), (23, 24), (28, 32), (92, 96), (97, 108)] {
            assert_eq!(next_fft_side(n), side, "n {n}");
        }
        for p in 1..12 {
            assert_eq!(next_fft_side(1 << p), 1 << p);
        }
        assert_eq!(next_fft_side(374), 384);
    }

    #[test]
    fn non_pow2_request_rounds_up() {
        let plan = Fft2d::new(23);
        assert_eq!(plan.n(), 24);
        let plan = Fft2d::new(28);
        assert_eq!(plan.n(), 32);
        let plan = Fft2d::new(1);
        assert_eq!(plan.n(), 2, "real split needs an even length");
    }
}
