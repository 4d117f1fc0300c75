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
//! [`dam_fo::em::EmWorkspace`] without a dedicated complex type.
//!
//! The stages run two per sweep over the data. Consecutive radix-2 stages
//! fuse into radix-2² passes; when `a` is odd, the radix-2 stage left over
//! fuses with a single radix-3 stage into one radix-6 pass (n = 6, 24, 96,
//! 384) and otherwise runs alone, as do the radix-3 stages when `b ≥ 2`.
//! The n = 96 column pass thus sweeps its plane three times instead of
//! six, and the 48-point row transform three times instead of five. A
//! fused pass is a schedule, not another algorithm: it applies the table
//! twiddles of the two stages it replaces (never the `∓i` rotation of a
//! true radix-4), so every element gets exactly the butterflies, twiddles
//! and operation order of the stage-by-stage loop, and the same bits — a
//! `#[cfg(test)]` copy of that loop pins them at every `2^a·3^b` length up
//! to 384. One kernel, `CfftPlan::transform`, serves the row passes and
//! every plane's column pass.
//!
//! # Why 2·3 sides
//!
//! The padded side only has to hold the linear convolution (see
//! [below](#padding-scheme)), so the smallest even `2^a·3^b` that does is
//! enough: the `stream-fft` shape (d = 64, b̂ = 14) has a 92-cell output
//! and runs on 96² instead of 128², and d = 256's 374 cells run on 384²
//! instead of 512² — 44% less area per transform. One radix-3 butterfly
//! costs about two radix-2 ones, so most of the saving is kept: on a
//! 2-vCPU x86-64 host a 48-point row transform measured 0.79× the 64-point
//! one, and the column pass over the half-spectrum 0.60× (49 columns of
//! 96 against 65 of 128), medians of six alternating rounds. The
//! stage-by-stage loop read 0.76× and 0.54× in the same rounds: a 64-point
//! transform has one more pair of radix-2 stages to fuse than a 48-point
//! one. Sides that are already powers of two, such as d = 20, b̂ = 4's 32,
//! keep their plan.
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
//! A spectrum is a row-major half-spectrum: `n` rows (column frequency
//! `ky`), each holding the `n/2 + 1` interleaved complex row frequencies
//! `kx`, so `S[ky, kx]` lives at `spec[ky·(n + 2) + 2·kx]`
//! ([`Fft2d::forward`] writes it). A row's real transform runs in place in
//! its own row — the `n + 2` floats hold the `n` reals before and the
//! half-spectrum after. The column pass runs each butterfly between two
//! *whole rows*: one twiddle, then a contiguous sweep over the `n/2 + 1`
//! column frequencies. One `n × (n + 2)` buffer is thus the only scratch
//! a transform pair needs.
//!
//! A plan cuts that buffer, and its kernel spectrum, by column frequency
//! into contiguous **column-block planes**: plane `p` holds all `n` rows
//! of the frequencies `kx ∈ [c_p, c_{p+1})`, so the planes together are
//! exactly the floats of the half-spectrum (no memory is added). Below
//! [`PARALLEL_FFT_MIN_SIDE`], or on one thread, a plan has one plane,
//! which *is* the row-major half-spectrum; otherwise it has one plane per
//! thread ([`Fft2d::new`]).
//!
//! Rows that are all zero are never transformed (their spectrum rows are
//! written `+0.0`), and rows the caller never reads back are never
//! inverted. Every other element gets exactly the butterflies, twiddles
//! and operation order of a transform of the whole padded grid. A
//! transformed zero row would be zero too, up to the sign of some zero
//! imaginary parts, and a zero's sign can only reach results that are
//! themselves zero — so the EM estimates stay bit-identical (pinned by
//! the `conv_equivalence` suite).
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
//! # One batch per convolution, on any number of planes
//!
//! Every [`Fft2d::convolve`] is one [`rayon::pool::run_phases`] batch of
//! three phases:
//!
//! 1. forward row transforms, each transformed row written into every
//!    plane and the rows past the source zeroed — the first unit also sums
//!    the source for the far-field term (a serial add chain that the other
//!    threads' row units overlap);
//! 2. per plane, the forward column pass, the kernel product and the
//!    inverse column pass — columns are independent, so these need no
//!    barrier between them;
//! 3. inverse row transforms of only the rows read back, each finished
//!    straight into the caller's output.
//!
//! With one plane the batch runs on its caller, each row phase is a single
//! unit, and each row is transformed in place in the plane: the row-major
//! transform pair of the layout above. With several, each row phase has
//! one unit per row block (`n / ROW_BLOCKS` rows, rounded per block when
//! 16 does not divide `n`), which gathers each row from the planes into
//! row scratch and scatters it back.
//!
//! An EM map's two convolutions run as **one** batch of five phases,
//! [`Fft2d::convolve_then_correlate`]: the first two phases above; then
//! the E-step's inverse rows, the caller's per-row stop (EM's weights and
//! log-likelihood terms) and the forward transform of each weight row
//! straight back into the spectrum row it was read from; then the
//! adjoint's plane pass with the conjugate spectrum, next to the in-order
//! sums of the weights and of the terms; and last the adjoint's inverse
//! rows. The row and plane units are the ones `convolve` runs. One pool
//! handoff thus serves a whole map, and on several planes the per-cell
//! `ln` and divisions between the two convolutions are split across the
//! row blocks.
//!
//! The column pass inside a plane is the whole-row butterfly above, on a
//! narrower row, so every element gets the same butterflies, twiddles,
//! product and operation order whatever the plane count: every plan gives
//! the bits of the row-major reference
//! (`planes_match_row_major_reference_bits` below, and the pinned
//! `conv_equivalence` constants, which CI checks both on two cores and
//! under `taskset -c 0`). Two other multi-plane
//! layouts measured slower: splitting the column pass by column ranges
//! inside shared rows ran ~3× slower per element on both threads in a
//! prototype (coherence traffic the prefetchers drive across the range
//! boundary), and scratch rows packed side by side in one shared buffer
//! cost the row phases ~1.7× per element.
//!
//! The two convolutions of one EM iteration (apply + adjoint) on a
//! 2-vCPU x86-64 host, the former row-major path vs two planes, medians
//! of finely interleaved samples: 66.2 vs 90.0 µs at n = 48 (d = 32,
//! b̂ = 8), 165.4 vs 171.7 µs at n = 72 (d = 48, b̂ = 12), 308.6 vs
//! 250.4 µs at n = 96 (d = 64, b̂ = 14) and 639.1 vs 435.6 µs at n = 128
//! (d = 100, b̂ = 14); the threshold's docs list the spread across rounds.
//!
//! An earlier measurement had put the row passes on the pool and found
//! them slower (603 vs 431 µs per iteration at n = 128). It was
//! confounded: each `pool::run(.., None, ..)` asks
//! [`rayon::current_num_threads`], and that `available_parallelism` call
//! reads cgroup files — 21.7 µs per call on that host, about eight calls
//! per iteration, the whole gap. Plans resolve their thread count once,
//! when they are built.

use rayon::pool::Tiles;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest padded side `n` at which a plan ([`Fft2d::new`]) has one
/// column-block plane per thread; smaller grids keep one plane.
///
/// Measured on a 2-vCPU x86-64 host, the two convolutions of one EM
/// iteration (apply + adjoint), time on the former row-major path over
/// time on two column-block planes, medians of 600 finely interleaved
/// samples in each of six rounds, with the fused two-stage FFT passes: 0.56–1.08×
/// at n = 48 (d = 32, b̂ = 8), 0.77–1.14× at n = 72 (d = 48, b̂ = 12),
/// 0.92–1.32× at n = 96 (d = 64, b̂ = 14) and 1.41–1.56× at n = 128
/// (d = 100, b̂ = 14). In the `stream-fft` benchmark (n = 96) a plan kept
/// row-major there read `epoch_ms_p50` 1.06× the two-plane one (four
/// alternating pairs, two planes faster in three). Before the fusion two
/// planes read 1.06–1.15× at n = 96 and cut traced `em.us_per_iter` from
/// 365–430 µs to 329–334 µs; earlier, on the radix-2 grids: 0.56× at
/// n = 32, ~1.0× at n = 64, 1.44× at n = 128.
/// The `ingest-1m` and `durable-cluster` shapes (d = 20, n = 32)
/// therefore keep one plane, and `stream-fft` has one per thread.
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
    /// Forward twiddles `e^{-2πik/n}` for `k ∈ [0, n)` as triples
    /// `(cos, −sin, sin)`: both signs of the sine are stored, so no
    /// transform negates one at run time (see `butterfly2`).
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
        let mut tw = Vec::with_capacity(3 * n);
        for k in 0..n {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            tw.extend([angle.cos(), -angle.sin(), angle.sin()]);
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
    /// then one radix-3 stage per factor 3. The stages run **two per
    /// sweep** over `data`: consecutive radix-2 stages fuse in pairs
    /// (radix-2² passes, from the first stage on); a radix-2 stage left
    /// over when `a` is odd fuses with the radix-3 stage into one radix-6
    /// pass when `b = 1` (n = 6, 24, 96, 384) and runs alone otherwise, as
    /// do the radix-3 stages when `b ≥ 2`. A fused pass loads each group of
    /// elements its two stages close over once and applies both stages'
    /// butterflies with their table twiddles — never the `∓i` rotation of
    /// a true radix-4 — so every complex value gets exactly the
    /// butterflies, twiddles and operation order of the stage-by-stage
    /// loop, and the same bits (`fused_passes_match_stagewise_reference_bits`).
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
        // Twiddle `k` as `(cos, −sin, sin)` of `e^{∓2πik/n}`: the inverse
        // conjugates it by swapping the stored signs.
        let tw = |k: usize| {
            let t = &self.tw[3 * k..3 * k + 3];
            if inverse {
                (t[0], t[2], t[1])
            } else {
                (t[0], t[1], t[2])
            }
        };
        let sin60 = if inverse { -SIN_60 } else { SIN_60 };
        // `q` is half the length of the next radix-2 stage.
        let mut q = 1;
        while 4 * q <= self.pow2 {
            radix4_pass(data, width, q, n / (4 * q), &tw);
            q *= 4;
        }
        let mut len = 3 * self.pow2;
        if 2 * q == self.pow2 {
            if len == n {
                radix6_pass(data, width, self.pow2, &tw, sin60);
                len *= 3;
            } else {
                radix2_stage(data, width, q, n / (2 * q), &tw);
            }
        }
        while len <= n {
            radix3_stage(data, width, len / 3, n / len, &tw, sin60);
            len *= 3;
        }
    }
}

/// The radix-2 stages of lengths `2q` and `4q` in one sweep; `step` is
/// `n / 4q`. Each group `j, j + q, j + 2q, j + 3q` (`j < q`) of a
/// `4q`-element block gets the first stage's butterflies `(j, j + q)` and
/// `(j + 2q, j + 3q)`, both with that stage's twiddle for `j`, then the
/// second's `(j, j + 2q)` and `(j + q, j + 3q)`, with its twiddles for `j`
/// and `j + q`.
#[inline(always)]
fn radix4_pass(
    data: &mut [f64],
    width: usize,
    q: usize,
    step: usize,
    tw: &impl Fn(usize) -> (f64, f64, f64),
) {
    for block in data.chunks_exact_mut(4 * q * width) {
        let (s01, s23) = block.split_at_mut(2 * q * width);
        let (s0, s1) = s01.split_at_mut(q * width);
        let (s2, s3) = s23.split_at_mut(q * width);
        for j in 0..q {
            let wa = tw(2 * j * step);
            let (wb0, wb1) = (tw(j * step), tw((j + q) * step));
            let span = j * width..(j + 1) * width;
            let x0 = &mut s0[span.clone()];
            let x1 = &mut s1[span.clone()];
            let x2 = &mut s2[span.clone()];
            let x3 = &mut s3[span];
            for e in (0..width).step_by(2) {
                let (y0, y1) = butterfly2(wa, (x0[e], x0[e + 1]), (x1[e], x1[e + 1]));
                let (y2, y3) = butterfly2(wa, (x2[e], x2[e + 1]), (x3[e], x3[e + 1]));
                let (z0, z2) = butterfly2(wb0, y0, y2);
                let (z1, z3) = butterfly2(wb1, y1, y3);
                (x0[e], x0[e + 1]) = z0;
                (x1[e], x1[e + 1]) = z1;
                (x2[e], x2[e + 1]) = z2;
                (x3[e], x3[e + 1]) = z3;
            }
        }
    }
}

/// The last radix-2 stage (length `p = 2^a`) and the one radix-3 stage
/// (length `n = 3p`) in one sweep. With `q = p/2`, each group of the six
/// elements `j, j + q` (`j < q`) of the three thirds gets the radix-2
/// butterflies within each third, with that stage's twiddle for `j`, then
/// the radix-3 butterflies across the thirds at `j` and at `j + q`, with
/// that stage's twiddles for each.
#[inline(always)]
fn radix6_pass(
    data: &mut [f64],
    width: usize,
    p: usize,
    tw: &impl Fn(usize) -> (f64, f64, f64),
    sin60: f64,
) {
    let q = p / 2;
    let (s0, rest) = data.split_at_mut(p * width);
    let (s1, s2) = rest.split_at_mut(p * width);
    let (a_lo, a_hi) = s0.split_at_mut(q * width);
    let (b_lo, b_hi) = s1.split_at_mut(q * width);
    let (c_lo, c_hi) = s2.split_at_mut(q * width);
    for j in 0..q {
        let w = tw(3 * j);
        let (w1_lo, w2_lo) = (tw(j), tw(2 * j));
        let (w1_hi, w2_hi) = (tw(j + q), tw(2 * (j + q)));
        let span = j * width..(j + 1) * width;
        let a0 = &mut a_lo[span.clone()];
        let a1 = &mut a_hi[span.clone()];
        let b0 = &mut b_lo[span.clone()];
        let b1 = &mut b_hi[span.clone()];
        let c0 = &mut c_lo[span.clone()];
        let c1 = &mut c_hi[span];
        for e in (0..width).step_by(2) {
            let (ya0, ya1) = butterfly2(w, (a0[e], a0[e + 1]), (a1[e], a1[e + 1]));
            let (yb0, yb1) = butterfly2(w, (b0[e], b0[e + 1]), (b1[e], b1[e + 1]));
            let (yc0, yc1) = butterfly2(w, (c0[e], c0[e + 1]), (c1[e], c1[e + 1]));
            let (za0, zb0, zc0) = butterfly3(w1_lo, w2_lo, sin60, ya0, yb0, yc0);
            let (za1, zb1, zc1) = butterfly3(w1_hi, w2_hi, sin60, ya1, yb1, yc1);
            (a0[e], a0[e + 1]) = za0;
            (a1[e], a1[e + 1]) = za1;
            (b0[e], b0[e + 1]) = zb0;
            (b1[e], b1[e + 1]) = zb1;
            (c0[e], c0[e + 1]) = zc0;
            (c1[e], c1[e + 1]) = zc1;
        }
    }
}

/// One radix-2 stage of length `2q` on its own; `step` is `n / 2q`.
#[inline(always)]
fn radix2_stage(
    data: &mut [f64],
    width: usize,
    q: usize,
    step: usize,
    tw: &impl Fn(usize) -> (f64, f64, f64),
) {
    for block in data.chunks_exact_mut(2 * q * width) {
        let (lo, hi) = block.split_at_mut(q * width);
        for j in 0..q {
            let w = tw(j * step);
            let a = &mut lo[j * width..(j + 1) * width];
            let b = &mut hi[j * width..(j + 1) * width];
            for e in (0..width).step_by(2) {
                let (ya, yb) = butterfly2(w, (a[e], a[e + 1]), (b[e], b[e + 1]));
                (a[e], a[e + 1]) = ya;
                (b[e], b[e + 1]) = yb;
            }
        }
    }
}

/// One radix-3 stage of length `3·third` on its own; `step` is
/// `n / (3·third)`.
#[inline(always)]
fn radix3_stage(
    data: &mut [f64],
    width: usize,
    third: usize,
    step: usize,
    tw: &impl Fn(usize) -> (f64, f64, f64),
    sin60: f64,
) {
    for block in data.chunks_exact_mut(3 * third * width) {
        let (s0, rest) = block.split_at_mut(third * width);
        let (s1, s2) = rest.split_at_mut(third * width);
        for j in 0..third {
            let (w1, w2) = (tw(j * step), tw(2 * j * step));
            let a = &mut s0[j * width..(j + 1) * width];
            let b = &mut s1[j * width..(j + 1) * width];
            let c = &mut s2[j * width..(j + 1) * width];
            for e in (0..width).step_by(2) {
                let (ya, yb, yc) =
                    butterfly3(w1, w2, sin60, (a[e], a[e + 1]), (b[e], b[e + 1]), (c[e], c[e + 1]));
                (a[e], a[e + 1]) = ya;
                (b[e], b[e + 1]) = yb;
                (c[e], c[e + 1]) = yc;
            }
        }
    }
}

/// Radix-2 butterfly `(a + w·b, a − w·b)` on `(re, im)` pairs, with the
/// twiddle `w` as `(re, −im, im)`.
///
/// Both parts of the product `w·b` are a sum of two products,
/// `re·b.re + (−im)·b.im` and `re·b.im + im·b.re`, with `−im` read from the
/// table. `x − y·z` and `x + (−y)·z` round identically, so the bits are
/// those of the subtracting form `re·b.re − im·b.im`; but on the n = 96
/// column pass that form measured 1.13× slower, and 1.3× slower when the
/// sine's sign was computed at run time (the compiler folds a computed
/// negation back into the subtraction).
#[inline(always)]
fn butterfly2(w: (f64, f64, f64), a: (f64, f64), b: (f64, f64)) -> ((f64, f64), (f64, f64)) {
    let tr = w.0 * b.0 + w.1 * b.1;
    let ti = w.0 * b.1 + w.2 * b.0;
    ((a.0 + tr, a.1 + ti), (a.0 - tr, a.1 - ti))
}

/// Radix-3 butterfly on `(re, im)` pairs: `X₀ = a + b' + c'`,
/// `X₁ = a + ω·b' + ω²·c'`, `X₂ = a + ω²·b' + ω·c'` with `b' = w1·b`,
/// `c' = w2·c` and `ω = e^{∓2πi/3}`, so both share
/// `a − (b' + c')/2 ∓ i·(√3/2)(b' − c')`; `sin60` carries the `∓`. The
/// twiddles are `(re, −im, im)`, multiplied as in `butterfly2`.
#[inline(always)]
fn butterfly3(
    w1: (f64, f64, f64),
    w2: (f64, f64, f64),
    sin60: f64,
    a: (f64, f64),
    b: (f64, f64),
    c: (f64, f64),
) -> ((f64, f64), (f64, f64), (f64, f64)) {
    let (tbr, tbi) = (w1.0 * b.0 + w1.1 * b.1, w1.0 * b.1 + w1.2 * b.0);
    let (tcr, tci) = (w2.0 * c.0 + w2.1 * c.1, w2.0 * c.1 + w2.2 * c.0);
    let (sr, si) = (tbr + tcr, tbi + tci);
    let (dr, di) = (sin60 * (tbr - tcr), sin60 * (tbi - tci));
    let (mr, mi) = (a.0 - 0.5 * sr, a.1 - 0.5 * si);
    ((a.0 + sr, a.1 + si), (mr + di, mi - dr), (mr - di, mi + dr))
}

/// Row blocks a plan cuts the grid into: the tiles of each plane, and the
/// units of a multi-plane batch's row phases. Sixteen measured faster than
/// eight at n = 128: the helper thread wakes after the caller has started,
/// and smaller units still leave it half of each row phase. Below n = 16
/// some blocks hold no row.
const ROW_BLOCKS: usize = 16;

/// The column-block plane layout of a plan's batches (see the
/// [module docs](self)): one plane, which is the row-major half-spectrum,
/// or one per thread.
#[derive(Debug, Clone)]
struct PlaneSplit {
    /// Threads a batch runs on, resolved when the plan was built: 1 with
    /// one plane, whose batches run on their caller alone.
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
    /// One plane per thread, at most one per `ROW_BLOCKS` tiles of a
    /// [`Tiles`] and one per column.
    fn new(n: usize, threads: usize) -> Self {
        let threads = threads.max(1);
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
    fn row_span(&self, p: usize) -> Range<usize> {
        2 * self.cols[p]..2 * self.cols[p + 1]
    }

    /// Spectrum tiles of row blocks `blocks` of plane `p`: one slice of
    /// its rows.
    fn tiles_of(blocks: &Range<usize>, p: usize) -> Range<usize> {
        p * ROW_BLOCKS + blocks.start..p * ROW_BLOCKS + blocks.end
    }

    /// Units of a row phase that reads the first `rows` rows: with one
    /// plane, whose rows are transformed in place, one for them all; with
    /// several, whose rows pass through row scratch, one per row block
    /// that holds any of them.
    fn row_units(&self, rows: usize) -> usize {
        let blocks = self.rows[..ROW_BLOCKS].iter().filter(|&&y| y < rows).count();
        if self.planes() == 1 {
            blocks.min(1)
        } else {
            blocks
        }
    }

    /// Row blocks of row unit `u`.
    fn unit_blocks(&self, u: usize) -> Range<usize> {
        if self.planes() == 1 {
            0..ROW_BLOCKS
        } else {
            u..u + 1
        }
    }

    /// Bounds that cut a row-major field of `rows` rows of `d` values into
    /// the row blocks (blocks past `rows` are empty).
    fn field_bounds(&self, rows: usize, d: usize) -> [usize; ROW_BLOCKS + 1] {
        self.rows.map(|y| y.min(rows) * d)
    }
}

/// A reusable plan for real 2-D FFTs on an `n × n` grid, `n` an even
/// `2^a·3^b`.
///
/// [`Fft2d::forward`] writes the row-major half-spectrum of the
/// [module docs](self): `n` rows of `n/2 + 1` interleaved complex values.
/// Kernel spectra and the scratch of [`Fft2d::convolve`] are kept in the
/// plan's column-block planes, which with one plane is that same layout.
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
    /// Plane layout of the batches ([`Fft2d::convolve`],
    /// [`Fft2d::convolve_then_correlate`]).
    split: PlaneSplit,
}

impl Fft2d {
    /// Plans transforms for the smallest grid with an even `2^a·3^b` side
    /// ≥ `min_side` ([`next_fft_side`]). Its batches cut the spectrum
    /// into one column-block plane per thread of `threads` when that side
    /// is at least [`PARALLEL_FFT_MIN_SIDE`], and run on one plane on
    /// their caller otherwise, or when `threads` is 1.
    pub fn new(min_side: usize, threads: usize) -> Self {
        let n = next_fft_side(min_side);
        Self::split_across(n, if n >= PARALLEL_FFT_MIN_SIDE { threads } else { 1 })
    }

    /// [`Self::new`] on the even `2^a·3^b` side `n`, without the size
    /// gate: one plane per thread at any size.
    pub(crate) fn split_across(n: usize, threads: usize) -> Self {
        let half = n / 2;
        let mut unt = Vec::with_capacity(2 * (half + 1));
        for k in 0..=half {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            unt.push(angle.cos());
            unt.push(angle.sin());
        }
        let split = PlaneSplit::new(n, threads);
        Self { n, half, full: CfftPlan::new(n), halfplan: CfftPlan::new(half), unt, split }
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

    /// The spectrum of the zero-padded field `src` (as for
    /// [`Self::forward`]) in the plane layout [`Self::convolve`]
    /// multiplies by.
    pub fn kernel_spectrum(&self, src: &[f64], src_d: usize) -> Vec<f64> {
        let mut spec = vec![0.0; self.spectrum_len()];
        self.forward(src, src_d, &mut spec);
        let (split, rw) = (&self.split, 2 * (self.half + 1));
        if split.planes() == 1 {
            return spec;
        }
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
    /// This is one [`rayon::pool::run_phases`] batch of three phases:
    /// forward row transforms, written into the planes, with the sum of
    /// `src` as one more unit; per plane, the forward column pass, the
    /// product and the inverse column pass; inverse row transforms of the
    /// rows read back, each finished into `dst`. Every element gets the
    /// butterflies, twiddles and operation order of a row-major transform
    /// of the whole padded grid, so every plane count gives the same bits.
    #[allow(
        clippy::too_many_arguments,
        reason = "source, kernel spectrum, scratch and destination are caller-owned buffers the EM step reuses; a struct would only rename them"
    )]
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
        debug_assert!(src.len() / src_d <= self.n && rows <= self.n);
        let split = &self.split;
        let batch = Batch { fft: self, split, spec: Tiles::new(spec, &split.tiles) };
        let dst_bounds = split.field_bounds(rows, dst_d);
        let dst = Tiles::new(dst, &dst_bounds);
        // `Σ src` as f64 bits: stored in phase 0, read after its barrier.
        let total = AtomicU64::new(0);
        let units = [split.row_units(self.n), split.planes(), split.row_units(rows)];
        rayon::pool::run_phases(&units, Some(split.threads), |phase, unit| match phase {
            0 => batch.forward_rows(unit, src, src_d, &total),
            1 => batch.plane_pass(unit, kspec, product),
            _ => batch.inverse_rows(unit, &dst, dst_d, load_sum(&total), &finish),
        });
    }

    /// An EM map's two convolutions with one kernel as **one** pool batch:
    /// the convolution of the zero-padded field `src` (`src_d` wide), a
    /// stop in its read-back, and the correlation (through the conjugate
    /// of `kspec`) of the field that stop writes, read back onto the
    /// source grid.
    ///
    /// The first `mid.len() / mid_d` rows of the convolution are read
    /// back: `middle(total, y, row, mid_row, side_row)` gets
    /// `total = Σ src`, result row `y` (`n` reals) and row `y` of `mid`
    /// and of `side` (`mid_d` values each, `side` shaped as `mid`). `mid`
    /// is the correlation's source; the correlation is then read back as
    /// [`Self::convolve`] does, through `finish(Σ mid, y, row, dst_row)`
    /// with `dst` `src_d` wide. Returns `Σ side`, summed in order.
    ///
    /// The batch has five phases, so one pool handoff serves what two
    /// [`Self::convolve`] calls and a serial stop between them would:
    ///
    /// 0. forward row transforms of `src`, the first unit summing `src`;
    /// 1. per plane: column pass, × `kspec`, inverse column pass;
    /// 2. the inverse row transforms of the rows read back, `middle` on
    ///    each, and the forward transform of each `mid` row back into the
    ///    spectrum row it was read from (rows past `mid` are zeroed);
    /// 3. per plane: column pass, × `conj(kspec)`, inverse column pass,
    ///    plus one unit that sums `mid` and `side`;
    /// 4. the inverse row transforms read back into `dst`.
    ///
    /// Phases 0 and 1, and 3 and 4, run the units of [`Self::convolve`],
    /// and phase 2 does to each row what the read-back of one and the
    /// forward rows of the next would, so every value has the bits of
    /// `convolve`, `middle` and `convolve` in turn.
    #[allow(
        clippy::too_many_arguments,
        reason = "the buffers of two convolutions the EM step reuses; a struct would only rename them"
    )]
    pub fn convolve_then_correlate<M, F>(
        &self,
        src: &[f64],
        src_d: usize,
        kspec: &[f64],
        spec: &mut [f64],
        mid: &mut [f64],
        side: &mut [f64],
        mid_d: usize,
        middle: M,
        dst: &mut [f64],
        finish: F,
    ) -> f64
    where
        M: Fn(f64, usize, &[f64], &mut [f64], &mut [f64]) + Sync,
        F: Fn(f64, usize, &[f64], &mut [f64]) + Sync,
    {
        debug_assert_eq!(spec.len(), self.spectrum_len());
        debug_assert_eq!(kspec.len(), self.spectrum_len());
        debug_assert!(mid.len().is_multiple_of(mid_d) && side.len() == mid.len());
        debug_assert!(dst.len().is_multiple_of(src_d));
        let (mid_rows, rows) = (mid.len() / mid_d, dst.len() / src_d);
        debug_assert!(src.len() / src_d <= self.n && mid_rows <= self.n && rows <= self.n);
        let split = &self.split;
        let batch = Batch { fft: self, split, spec: Tiles::new(spec, &split.tiles) };
        let mid_bounds = split.field_bounds(mid_rows, mid_d);
        let mid = Tiles::new(mid, &mid_bounds);
        let side = Tiles::new(side, &mid_bounds);
        let dst_bounds = split.field_bounds(rows, src_d);
        let dst = Tiles::new(dst, &dst_bounds);
        // `Σ src`, `Σ mid` and `Σ side` as f64 bits, each stored in the
        // phase before it is read.
        let totals: [AtomicU64; 3] = Default::default();
        let (planes, row_units) = (split.planes(), split.row_units(self.n));
        let units = [row_units, planes, row_units, 1 + planes, split.row_units(rows)];
        rayon::pool::run_phases(&units, Some(split.threads), |phase, unit| match (phase, unit) {
            (0, _) => batch.forward_rows(unit, src, src_d, &totals[0]),
            (1, _) => batch.plane_pass(unit, kspec, spectrum_mul),
            (2, _) => batch.turn_rows(unit, [&mid, &side], mid_d, load_sum(&totals[0]), &middle),
            // Both sums, first in their phase: the other thread's plane
            // units overlap them.
            (3, 0) => {
                let (mut mid, mut side) = (mid.lease(0..ROW_BLOCKS), side.lease(0..ROW_BLOCKS));
                store_sums(&totals[1..], mid.get(0..ROW_BLOCKS), side.get(0..ROW_BLOCKS));
            }
            (3, _) => batch.plane_pass(unit - 1, kspec, spectrum_mul_conj),
            _ => batch.inverse_rows(unit, &dst, src_d, load_sum(&totals[1]), &finish),
        });
        load_sum(&totals[2])
    }
}

/// How a row phase uses the spectrum rows it visits: forward transforms
/// write them, inverse transforms read them, EM's turn does both.
#[derive(Clone, Copy, PartialEq)]
enum RowIo {
    Write,
    Read,
    ReadWrite,
}

/// What every unit of one batch shares: the plan, its plane layout and
/// the spectrum cut into tiles. Its methods are the units, so
/// [`Fft2d::convolve`] and [`Fft2d::convolve_then_correlate`] run one
/// copy of each.
struct Batch<'a> {
    fft: &'a Fft2d,
    split: &'a PlaneSplit,
    spec: Tiles<'a, f64>,
}

impl Batch<'_> {
    /// Runs `f(y, row)` on row unit `u`'s spectrum rows `y < rows`, `row`
    /// holding row `y`'s `n + 2` floats, and when `io` writes the spectrum
    /// zeroes the unit's rows past them. With one plane `row` is the
    /// spectrum row itself. With several it is the unit's row scratch,
    /// gathered from the planes first and scattered back into them after,
    /// as `io` says.
    #[inline(always)]
    fn each_row(&self, u: usize, rows: usize, io: RowIo, mut f: impl FnMut(usize, &mut [f64])) {
        let split = self.split;
        let blocks = split.unit_blocks(u);
        let tiles = |p| PlaneSplit::tiles_of(&blocks, p);
        let mut planes = self.spec.lease((0..split.planes()).flat_map(tiles));
        let (top, bottom) = (split.rows[blocks.start], split.rows[blocks.end]);
        let (end, rw) = (rows.clamp(top, bottom), 2 * (self.fft.half + 1));
        let zeroed = end..if io == RowIo::Read { end } else { bottom };
        if split.planes() == 1 {
            let (visit, rest) = planes.get(tiles(0)).split_at_mut((end - top) * rw);
            for (k, row) in visit.chunks_exact_mut(rw).enumerate() {
                f(top + k, row);
            }
            rest[..zeroed.len() * rw].fill(0.0);
            return;
        }
        // Row scratch zeroed to the row's length only (a stack array sized
        // for the largest row zeroed 8 KB per unit).
        let mut row = vec![0.0; rw];
        for y in top..end {
            if io != RowIo::Write {
                for p in 0..split.planes() {
                    let span = split.row_span(p);
                    let width = span.len();
                    row[span].copy_from_slice(&planes.get(tiles(p))[(y - top) * width..][..width]);
                }
            }
            f(y, &mut row);
            if io != RowIo::Read {
                for p in 0..split.planes() {
                    let span = split.row_span(p);
                    let width = span.len();
                    planes.get(tiles(p))[(y - top) * width..][..width].copy_from_slice(&row[span]);
                }
            }
        }
        for p in 0..split.planes() {
            let width = split.row_span(p).len();
            planes.get(tiles(p))[(zeroed.start - top) * width..(zeroed.end - top) * width]
                .fill(0.0);
        }
    }

    /// Forward row transforms of row unit `u`'s rows of the zero-padded
    /// field `src`; rows past the source are zero. Unit 0 first stores
    /// `Σ src` in `total`: a serial add chain that the other threads' row
    /// units overlap.
    fn forward_rows(&self, u: usize, src: &[f64], src_d: usize, total: &AtomicU64) {
        if u == 0 {
            store_sum(total, src);
        }
        self.each_row(u, src.len() / src_d, RowIo::Write, |y, row| {
            self.fft.forward_row(&src[y * src_d..(y + 1) * src_d], row);
        });
    }

    /// Plane `p`'s column pass, kernel product and inverse column pass —
    /// columns are independent, so no barrier between them.
    fn plane_pass(&self, p: usize, kspec: &[f64], product: fn(&mut [f64], &[f64])) {
        let tiles = PlaneSplit::tiles_of(&(0..ROW_BLOCKS), p);
        let mut lease = self.spec.lease(tiles.clone());
        let plane = lease.get(tiles);
        let span = self.split.row_span(p);
        let (n, width) = (self.fft.n, span.len());
        self.fft.full.transform(plane, width, false);
        product(plane, &kspec[n * span.start..n * span.end]);
        self.fft.full.transform(plane, width, true);
    }

    /// Inverse row transforms of row unit `u`'s rows that are read back,
    /// each finished straight into `dst`.
    fn inverse_rows<F>(&self, u: usize, dst: &Tiles<'_, f64>, dst_d: usize, total: f64, finish: &F)
    where
        F: Fn(f64, usize, &[f64], &mut [f64]),
    {
        let blocks = self.split.unit_blocks(u);
        let top = self.split.rows[blocks.start];
        let mut dst_lease = dst.lease(blocks.clone());
        let dst = dst_lease.get(blocks);
        self.each_row(u, top + dst.len() / dst_d, RowIo::Read, |y, row| {
            self.fft.inverse_row(row);
            finish(total, y, &row[..self.fft.n], &mut dst[(y - top) * dst_d..][..dst_d]);
        });
    }

    /// [`Fft2d::convolve_then_correlate`]'s middle unit: each of row unit
    /// `u`'s rows that is read back is inverted, passed to `middle` with
    /// its rows of `mid` and `side` (`fields`), and replaced by the forward
    /// transform of its `mid` row; rows past `mid` are zeroed.
    fn turn_rows<M>(
        &self,
        u: usize,
        fields: [&Tiles<'_, f64>; 2],
        mid_d: usize,
        total: f64,
        middle: &M,
    ) where
        M: Fn(f64, usize, &[f64], &mut [f64], &mut [f64]),
    {
        let blocks = self.split.unit_blocks(u);
        let top = self.split.rows[blocks.start];
        let [mut mid, mut side] = fields.map(|field| field.lease(blocks.clone()));
        let (mid, side) = (mid.get(blocks.clone()), side.get(blocks));
        self.each_row(u, top + mid.len() / mid_d, RowIo::ReadWrite, |y, row| {
            let cells = (y - top) * mid_d..(y - top + 1) * mid_d;
            self.fft.inverse_row(row);
            middle(total, y, &row[..self.fft.n], &mut mid[cells.clone()], &mut side[cells.clone()]);
            self.fft.forward_row(&mid[cells], row);
        });
    }
}

/// Stores the in-order sum of `values` as f64 bits. `Relaxed` suffices:
/// it is read only in a later phase of the same `run_phases` batch, whose
/// barrier (Release/Acquire on its own counter) orders this store first.
fn store_sum(slot: &AtomicU64, values: &[f64]) {
    slot.store(values.iter().sum::<f64>().to_bits(), Ordering::Relaxed);
}

/// [`store_sum`] of `a` and of `b` into `slots[0..2]`, as two add chains
/// in one loop, which take the time of one.
fn store_sums(slots: &[AtomicU64], a: &[f64], b: &[f64]) {
    let (sum_a, sum_b) = a.iter().zip(b).fold((0.0, 0.0), |(x, y), (&p, &q)| (x + p, y + q));
    slots[0].store(f64::to_bits(sum_a), Ordering::Relaxed);
    slots[1].store(f64::to_bits(sum_b), Ordering::Relaxed);
}

/// Loads a sum [`store_sum`] stored in an earlier phase.
fn load_sum(slot: &AtomicU64) -> f64 {
    f64::from_bits(slot.load(Ordering::Relaxed))
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

    /// The row-major inverse of [`Fft2d::forward`], in place: the column
    /// pass over all of `spec`, then the inverse of only its first `rows`
    /// rows, returned as `n` reals each (the other rows are left as
    /// column-pass intermediates). With `forward` it is the reference the
    /// plane batches are checked against.
    fn inverse<'s>(plan: &Fft2d, spec: &'s mut [f64], rows: usize) -> Vec<&'s [f64]> {
        let (n, rw) = (plan.n, 2 * (plan.half + 1));
        plan.full.transform(spec, rw, true);
        for row in spec.chunks_exact_mut(rw).take(rows) {
            plan.inverse_row(row);
        }
        let spec: &'s [f64] = spec;
        spec.chunks_exact(rw).take(rows).map(|row| &row[..n]).collect()
    }

    /// Inverts all `n` rows of `spec` and returns the `n × n` reals.
    fn run_inverse(plan: &Fft2d, spec: &mut [f64]) -> Vec<f64> {
        inverse(plan, spec, plan.n()).concat()
    }

    /// The stage-by-stage loop [`CfftPlan::transform`] replaced: one
    /// sweep over `data` per radix-2 or radix-3 stage.
    fn transform_stagewise(plan: &CfftPlan, data: &mut [f64], width: usize, inverse: bool) {
        let n = plan.n;
        for &(i, j) in &plan.swaps {
            let (i, j) = (i as usize, j as usize);
            let (lo, hi) = data.split_at_mut(j * width);
            lo[i * width..(i + 1) * width].swap_with_slice(&mut hi[..width]);
        }
        let mut len = 2;
        while len <= plan.pow2 {
            let (half, step) = (len / 2, n / len);
            for block in data.chunks_exact_mut(len * width) {
                let (lo, hi) = block.split_at_mut(half * width);
                for j in 0..half {
                    let k = 3 * j * step;
                    let (wr, wi) =
                        (plan.tw[k], if inverse { -plan.tw[k + 2] } else { plan.tw[k + 2] });
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
        let (sign, sin60) = if inverse { (-1.0, -SIN_60) } else { (1.0, SIN_60) };
        let mut len = 3 * plan.pow2;
        while len <= n {
            let (third, step) = (len / 3, n / len);
            for block in data.chunks_exact_mut(len * width) {
                let (s0, rest) = block.split_at_mut(third * width);
                let (s1, s2) = rest.split_at_mut(third * width);
                for j in 0..third {
                    let (k1, k2) = (3 * j * step, 6 * j * step);
                    let (w1r, w1i) = (plan.tw[k1], sign * plan.tw[k1 + 2]);
                    let (w2r, w2i) = (plan.tw[k2], sign * plan.tw[k2 + 2]);
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

    #[test]
    fn fused_passes_match_stagewise_reference_bits() {
        // Every `2^a·3^b` length up to 384: odd half-plan lengths (radix-3
        // only), pure powers of two with an even and an odd number of
        // radix-2 stages, and the radix-6 pass (6, 24, 96, 384). Widths:
        // one interleaved sequence, and a whole half-spectrum row of the
        // column pass.
        let lengths = (2..=384).filter(|&n: &usize| {
            let mut odd = n >> n.trailing_zeros();
            while odd.is_multiple_of(3) {
                odd /= 3;
            }
            odd == 1
        });
        for n in lengths {
            let plan = CfftPlan::new(n);
            for width in [2, 2 * (n / 2 + 1)] {
                let mut rng = rand::rngs::StdRng::seed_from_u64((n * width) as u64);
                let x: Vec<f64> = (0..n * width).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                for inverse in [false, true] {
                    let (mut got, mut want) = (x.clone(), x.clone());
                    plan.transform(&mut got, width, inverse);
                    transform_stagewise(&plan, &mut want, width, inverse);
                    let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "n {n} width {width} inverse {inverse}: fused bits differ");
                }
            }
        }
    }

    #[test]
    fn cfft_matches_naive_dft() {
        // Powers of two, radix-3 only, mixed 2·3, and 384 = 128·3, each
        // column of a `width / 2`-column element transformed as its own
        // sequence.
        for n in [2usize, 4, 8, 16, 32, 64, 128, 3, 6, 9, 12, 18, 24, 48, 72, 96, 144, 384] {
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
            let plan = Fft2d::new(n, 1);
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
            let plan = Fft2d::new(n, 1);
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
        let plan = Fft2d::new(8, 1);
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
        let rows = inverse(&plan, &mut spec, 5);
        assert_eq!(rows.len(), 5);
        for (y, row) in rows.into_iter().enumerate() {
            assert_eq!(row, &back[y * 8..(y + 1) * 8], "row {y}");
        }
    }

    #[test]
    fn spectrum_product_is_circular_convolution() {
        let n = 8;
        let plan = Fft2d::new(n, 1);
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
        let plan = Fft2d::new(n, 1);
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

    /// Finishes result row `y` as `row + y·Σ src`, so a wrong row index
    /// or total would show.
    fn finish_row(total: f64, y: usize, row: &[f64], out: &mut [f64]) {
        for (o, &c) in out.iter_mut().zip(row) {
            *o = c + y as f64 * total;
        }
    }

    /// One convolution of `src` (`src_d` wide) with the kernel `k` (`k_d`
    /// wide), `rows` rows of `dst_d` read back through [`finish_row`]:
    /// through `plan`'s batch, or on `None` through the row-major
    /// reference ([`Fft2d::forward`], the product and [`inverse`]).
    #[allow(
        clippy::too_many_arguments,
        reason = "a test driver over `convolve`, taking the same inputs"
    )]
    fn run_convolve(
        plan: Option<&Fft2d>,
        n: usize,
        src: &[f64],
        src_d: usize,
        k: &[f64],
        k_d: usize,
        product: fn(&mut [f64], &[f64]),
        rows: usize,
        dst_d: usize,
    ) -> Vec<f64> {
        let mut dst = vec![f64::NAN; rows * dst_d];
        if let Some(plan) = plan {
            let kspec = plan.kernel_spectrum(k, k_d);
            let mut spec = vec![f64::NAN; plan.spectrum_len()];
            plan.convolve(src, src_d, &kspec, product, &mut spec, &mut dst, dst_d, finish_row);
            return dst;
        }
        let plan = Fft2d::new(n, 1);
        let (mut kspec, mut spec) =
            (vec![0.0; plan.spectrum_len()], vec![0.0; plan.spectrum_len()]);
        plan.forward(k, k_d, &mut kspec);
        plan.forward(src, src_d, &mut spec);
        product(&mut spec, &kspec);
        let total = src.iter().sum();
        for (y, (row, out)) in
            inverse(&plan, &mut spec, rows).into_iter().zip(dst.chunks_exact_mut(dst_d)).enumerate()
        {
            finish_row(total, y, row, out);
        }
        dst
    }

    #[test]
    fn planes_match_row_major_reference_bits() {
        // One to four planes (eight threads still make four) against the
        // row-major reference: empty row blocks and a two-column cap below
        // n = 16, one-row blocks at n = 16, uneven row blocks at n = 12,
        // 24 and 72, and the short sources and partial read-backs of the
        // EM primitives (n = 8, 12 and 32 are the one-plane shapes of
        // d = 5 at b̂ = 1 and 2 and of `ingest-1m`; n = 96 is
        // `stream-fft`'s E- and M-step).
        for (n, src_d, src_rows, rows, dst_d) in [
            (2, 2, 2, 2, 2),
            (4, 3, 3, 4, 4),
            (6, 5, 4, 6, 6),
            (8, 5, 5, 7, 7),
            (8, 7, 7, 5, 5),
            (12, 5, 5, 9, 9),
            (12, 9, 9, 5, 5),
            (16, 16, 16, 16, 16),
            (24, 13, 13, 23, 23),
            (32, 20, 20, 28, 28),
            (32, 28, 28, 20, 20),
            (48, 30, 30, 40, 40),
            (72, 50, 50, 60, 60),
            (96, 64, 64, 92, 92),
            (96, 92, 92, 64, 64),
            (128, 64, 64, 92, 92),
        ] {
            let src = &random_grid(n, 3 * n as u64)[..src_rows * src_d];
            let k_d = n.min(7);
            let k = &random_grid(n, 5 * n as u64)[..k_d * k_d];
            for product in [spectrum_mul as fn(&mut [f64], &[f64]), spectrum_mul_conj] {
                let want = run_convolve(None, n, src, src_d, k, k_d, product, rows, dst_d);
                assert!(want.iter().all(|v| v.is_finite()), "n {n}: reference left a cell");
                for threads in [1, 2, 3, 4, 8] {
                    let plan = Fft2d::split_across(n, threads);
                    let planes = plan.split.planes();
                    assert_eq!(planes, threads.min(4).min(n / 2 + 1), "n {n}");
                    let got =
                        run_convolve(Some(&plan), n, src, src_d, k, k_d, product, rows, dst_d);
                    let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "n {n}, {planes} planes: bits differ from the row-major reference"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_count_follows_threads_and_the_size_gate() {
        let planes = |min_side, threads| Fft2d::new(min_side, threads).split.planes();
        assert_eq!(planes(PARALLEL_FFT_MIN_SIDE, 2), 2);
        assert_eq!(planes(PARALLEL_FFT_MIN_SIDE, 3), 3);
        assert_eq!(planes(PARALLEL_FFT_MIN_SIDE, 8), 4, "at most 4 planes of 16 tiles");
        assert_eq!(planes(PARALLEL_FFT_MIN_SIDE, 1), 1);
        assert_eq!(planes(PARALLEL_FFT_MIN_SIDE / 2, 2), 1);
        assert_eq!(planes(5, 2), 1);
        // A one-plane plan runs its batches on its caller alone.
        for plan in [Fft2d::new(PARALLEL_FFT_MIN_SIDE / 2, 2), Fft2d::new(PARALLEL_FFT_MIN_SIDE, 1)]
        {
            assert_eq!(plan.split.threads, 1);
        }
        assert_eq!(Fft2d::new(PARALLEL_FFT_MIN_SIDE, 2).split.threads, 2);
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
        let plan = Fft2d::new(23, 1);
        assert_eq!(plan.n(), 24);
        let plan = Fft2d::new(28, 1);
        assert_eq!(plan.n(), 32);
        let plan = Fft2d::new(1, 1);
        assert_eq!(plan.n(), 2, "real split needs an even length");
    }
}
