//! Shared performance-tuning constants and the measured cost models that
//! drive backend selection.
//!
//! Every magic number that encodes a *measurement* of this substrate lives
//! here, next to the experiment that produced it, so the stencil, FFT and
//! sharding paths stay calibrated against the same numbers instead of
//! each hiding its own copy.
//!
//! Two thresholds gate the pool: [`PARALLEL_WORK_THRESHOLD`] for the
//! stencil, the sharded report pipeline and the other row-parallel
//! sweeps, and [`PARALLEL_FFT_MIN_SIDE`] for the spectral convolutions.
//! Both callers in `dam_core::conv` resolve their thread count once, when
//! the channel is built. Asking the pool per call means one
//! `available_parallelism` call per batch, which reads cgroup files:
//! 21.7 µs per call on a 2-vCPU x86-64 host. That cost once made a
//! two-core FFT measure slower than serial (603 vs 431 µs per EM
//! iteration at n = 128, about eight calls per iteration); with the count
//! resolved up front the same transforms run 1.44× faster on two cores
//! (see [`crate::fft`]).

/// Below this many multiply-adds per parallel primitive call (one E-step
/// or M-step sweep), handing rows to the persistent worker pool costs
/// more in task handoff than the parallelism saves; run serially.
///
/// Measurement (PR 1 substrate, reproduced on the PR 3 box with
/// `cargo bench -p dam-bench --bench complexity`): at `d = 32, b̂ = 4`
/// (≈1.3 M MACs/sweep) the row-parallel stencil was *slower* than serial
/// by ~15% due to per-batch pool wakeups, while at `d = 64, b̂ = 8`
/// (≈26 M MACs/sweep) it scaled with the recorded thread count. The
/// break-even sits near 10⁶ MACs; 2²⁰ is the nearest power of two.
///
/// Those per-batch costs included an `available_parallelism` call per
/// sweep (~22 µs on a 2-vCPU host; see the module docs), which
/// [`ConvChannel`](crate::conv::ConvChannel) no longer pays: it resolves
/// its thread count once. The threshold has not been re-measured since.
pub const PARALLEL_WORK_THRESHOLD: usize = 1 << 20;

/// Smallest padded side `n` at which a spectral convolution
/// ([`crate::fft::Fft2d::convolve`]) splits across threads.
///
/// Measured on a 2-vCPU x86-64 host, one EM iteration (apply + adjoint),
/// serial vs split over two column-block planes, medians of 31
/// interleaved samples: 0.56× at n = 32, 1.02× at n = 64 (break-even
/// within noise; 0.87–1.02× across runs), 1.44× at n = 128 and 1.69× at
/// n = 256. The `ingest-1m` and `durable-cluster` benchmark shapes
/// (d = 20, n = 32) therefore stay serial, and `stream-fft` (n = 128)
/// splits.
pub const PARALLEL_FFT_MIN_SIDE: usize = 128;

/// Per-iteration flop count of the O(n_out·b̂²) stencil operator
/// ([`crate::conv::ConvChannel`]): one multiply-add per (output cell,
/// box offset) pair.
pub fn stencil_flops(out_d: usize, box_side: usize) -> usize {
    out_d * out_d * box_side * box_side
}

/// Effective per-iteration cost of the spectral operator
/// ([`crate::conv::FftChannel`]) in stencil-MAC units.
///
/// One EM primitive is a forward + inverse padded real 2-D FFT
/// (≈ `2·n²·log₂ n` complex butterflies over the row and column passes)
/// plus the spectrum product and the pad/readout sweeps (≈ `3·n²`).
/// A butterfly costs several times a contiguous stencil multiply-add
/// (twiddle loads, the short blocks of the early row-pass stages), which
/// the calibration factor absorbs.
///
/// Calibrated against `BENCH_em.json` (PR 3, d = 64 radius sweep,
/// single-core substrate): measured conv/fft ns-per-EM ratios were
/// 0.74× at b̂ = 4, 2.45× at b̂ = 8, 8.97× at b̂ = 16 and 34.6× at
/// b̂ = 32 — the crossover sits between b̂ = 4 and b̂ = 8. With
/// `FFT_MAC_FACTOR = 4` the model costs the n = 128 transform at ≈1.11 M
/// stencil-MACs, landing the predicted switch in the same gap
/// (0.42 M < 1.11 M < 1.85 M stencil MACs at b̂ = 4 vs 8).
///
/// The committed `BENCH_em.json` now measures the FFT ahead already at
/// d = 64, b̂ = 4, so the model overprices today's transform. The factor
/// stays put: moving `Auto`'s crossover changes which backend — and so
/// which estimate bits — some figure shapes get.
pub fn fft_equivalent_flops(padded_n: usize) -> usize {
    const FFT_MAC_FACTOR: usize = 4;
    let n2 = padded_n * padded_n;
    let log2n = padded_n.next_power_of_two().trailing_zeros().max(1) as usize;
    FFT_MAC_FACTOR * n2 * (2 * log2n + 3)
}

/// Smallest power of two ≥ `n`, clamped to at least 2 (the real-FFT
/// split needs an even length).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(2)
}

/// `true` when the cost model predicts the spectral backend beats the
/// stencil for a `d × d` input grid with disk radius `b̂` — the decision
/// rule behind `EmBackend::Auto`.
pub fn fft_beats_stencil(d: u32, b_hat: u32) -> bool {
    let out_d = (d + 2 * b_hat) as usize;
    let side = 2 * b_hat as usize + 1;
    fft_equivalent_flops(next_pow2(out_d)) < stencil_flops(out_d, side)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_rounds_up_and_clamps() {
        assert_eq!(next_pow2(1), 2);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(96), 128);
        assert_eq!(next_pow2(128), 128);
    }

    #[test]
    fn auto_crossover_matches_measured_regimes() {
        // The benchmarked anchor points of the acceptance criteria: the
        // stencil must win the small-radius regime and the FFT the
        // large-radius regime at d = 64.
        assert!(!fft_beats_stencil(64, 4), "stencil must win at b̂ = 4");
        assert!(fft_beats_stencil(64, 8), "FFT must win at b̂ = 8 (measured 2.45×)");
        assert!(fft_beats_stencil(64, 16), "FFT must win at b̂ = 16");
        assert!(fft_beats_stencil(64, 32), "FFT must win at b̂ = 32");
        // Paper-scale small grids stay on the stencil.
        assert!(!fft_beats_stencil(20, 3));
        assert!(!fft_beats_stencil(32, 4));
        // Degenerate radius: the stencil is a single multiply per cell and
        // unbeatable.
        assert!(!fft_beats_stencil(20, 0));
    }

    #[test]
    fn fft_cost_grows_monotonically() {
        let mut prev = 0;
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            let c = fft_equivalent_flops(n);
            assert!(c > prev);
            prev = c;
        }
    }
}
