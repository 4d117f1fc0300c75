//! `GridAreaResponse` (Algorithm 2): per-user randomized reporting.
//!
//! Algorithm 2 samples among four area buckets (pure low, mixed-low,
//! mixed-high, pure high) with weights `⟨1, 1, e^ε, e^ε⟩` and then a cell
//! within the bucket. Because every output cell's total mass is
//! `S_p·p̂ + (1 − S_p)·q̂`, that two-stage scheme is equivalent to one
//! categorical draw over output cells — which is what this implementation
//! does: a Walker alias pick over the `(2b̂+1)²` offsets of the box around
//! the input plus one "far field" outcome, and for the far outcome a
//! uniform draw over the output cells outside the box. Setup is
//! `O(b̂² + d)` and each report is `O(1)` with no integer division on the
//! hot path, matching the paper's `O(g)` response complexity.
//!
//! * **Slot table.** The alias table is built once by [`AliasTable`] and
//!   copied into 16-byte slots holding the coin threshold and both
//!   outcomes pre-decoded: a box outcome is the packed offset
//!   `(dy << 16) | dx` from the box's lower-left corner, the far outcome a
//!   sentinel. A pick is one `u64` draw split exactly as
//!   [`AliasTable::sample`] splits it (the high word of `r·k` is the slot,
//!   the top 53 bits of the low word the coin), one slot load and a
//!   select — no `% side` or `/ side`.
//! * **Closed-form far field.** The `n_out − side²` cells outside the box
//!   are enumerated as the rows below the box, the rows above it, then the
//!   strip left of the box and the strip right of it. The rows form one
//!   band of `(od − side)` full rows: index `t` is row `r = t / od`,
//!   column `t % od`, and output row `r`, or `r + side` once `r` reaches
//!   the box. Past the band, `t` falls in the left strip (width `ix`) or
//!   the right strip (width `od − side − ix`).
//! * **Reciprocal division.** The divisions by `od` and by a strip width
//!   multiply by a precomputed `M = ⌊(2⁶⁴ − 1)/w⌋ + 1` and keep the high
//!   word (Granlund–Montgomery). With `M·2⁻⁶⁴ = 1/w + e/(w·2⁶⁴)`,
//!   `0 ≤ e < w`, the quotient overshoots `t/w` by less than `t·2⁻⁶⁴`,
//!   which stays below the `1/w` gap to the next integer for every
//!   `t < 2³²` — so [`GridAreaResponse::new`] bounds `n_out` below 2³². A
//!   width of 1 (where `M` would be 2⁶⁴) is the identity.
//!
//! None of this changes a draw relative to the direct sampler — an
//! [`AliasTable::sample`] pick split by `% side` / `/ side`, and the far
//! field cut into up to four rectangles visited in the order above — which
//! `crates/core/tests/sampler_oracle.rs` keeps as its reference: the slots
//! hold the table's probabilities and outcomes, the coin is the same 53
//! bits against the same `f64`, and the far field calls `gen_range` over
//! the same count and enumerates the cells in the same order. The suite
//! checks that draw for draw at every input cell and pins the report
//! planes. [`GridAreaResponse::realized_masses`] gives the exact channel
//! these draws realize, for privacy audits of the code rather than of the
//! analytic kernel.

use crate::kernel::DiscreteKernel;
use dam_fo::alias::AliasTable;
use dam_geo::CellIndex;
use rand::Rng;

/// The packed outcome of an alias slot that leaves the offset box.
const FAR: u32 = u32::MAX;

/// One alias slot: the coin threshold, the outcome kept below it and the
/// alias taken at or above it, each a packed box offset `(dy << 16) | dx`
/// or [`FAR`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    prob: f64,
    keep: u32,
    alias: u32,
}

/// The randomized reporting function `FO.T` for any discrete SAM kernel.
#[derive(Debug, Clone)]
pub struct GridAreaResponse {
    kernel: DiscreteKernel,
    /// Alias slots over box offsets (`box_side²` outcomes) plus one final
    /// "far field" outcome.
    slots: Vec<Slot>,
    /// `recip[w] = ⌊(2⁶⁴ − 1)/w⌋ + 1` for `2 ≤ w ≤ out_d`; entries 0 and
    /// 1 are unused.
    recip: Vec<u64>,
    /// Output cells outside the box: the far draw's range.
    far_cells: u64,
}

impl GridAreaResponse {
    /// Builds the responder for a kernel.
    ///
    /// # Panics
    /// Panics if the box side is 2¹⁶ or more, or the output grid has 2³²
    /// cells or more.
    pub fn new(kernel: DiscreteKernel) -> Self {
        let side = kernel.box_side();
        assert!(side < 1 << 16, "offset box side {side} does not fit a packed offset");
        assert!((kernel.n_out() as u64) < 1 << 32, "output grid too large for the far-field draw");
        let box_cells = side * side;
        let far_cells = kernel.n_out() - box_cells;
        let mut weights = Vec::with_capacity(box_cells + 1);
        weights.extend_from_slice(kernel.offset_masses());
        weights.push(far_cells as f64 * kernel.q_hat());
        let alias = AliasTable::new(&weights);
        let outcome =
            |j: usize| if j == box_cells { FAR } else { (((j / side) << 16) | (j % side)) as u32 };
        let slots = (0..alias.len())
            .map(|i| {
                let (prob, a) = alias.slot(i);
                Slot { prob, keep: outcome(i), alias: outcome(a) }
            })
            .collect();
        let recip = (0..=u64::from(kernel.out_d()))
            .map(|w| if w < 2 { 0 } else { u64::MAX / w + 1 })
            .collect();
        Self { kernel, slots, recip, far_cells: far_cells as u64 }
    }

    /// The kernel this responder reports through.
    #[inline]
    pub fn kernel(&self) -> &DiscreteKernel {
        &self.kernel
    }

    /// Randomizes one input cell into an output-grid cell.
    #[inline]
    pub fn respond(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> CellIndex {
        let d = self.kernel.d();
        assert!(input.ix < d && input.iy < d, "input cell out of grid");
        let wide = rng.next_u64() as u128 * self.slots.len() as u128;
        let slot = self.slots[(wide >> 64) as usize];
        // Top 53 bits of the fractional word, mapped to [0, 1); below 2⁵³,
        // so the signed conversion is exact.
        let coin = ((wide as u64) >> 11) as i64 as f64 * (1.0 / (1u64 << 53) as f64);
        let packed = if coin < slot.prob { slot.keep } else { slot.alias };
        if packed == FAR {
            return self.sample_far(input, rng);
        }
        CellIndex::new(input.ix + (packed & 0xFFFF), input.iy + (packed >> 16))
    }

    /// Uniform draw over the output grid minus the offset box around
    /// `input`: the band of full rows below and above the box, then the
    /// strips left and right of it.
    fn sample_far(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> CellIndex {
        let od = u64::from(self.kernel.out_d());
        let side = self.kernel.box_side() as u64;
        let (ix, iy) = (u64::from(input.ix), u64::from(input.iy));
        let t = rng.gen_range(0..self.far_cells);
        let band = (od - side) * od;
        let (x, y) = if t < band {
            let (r, x) = self.div_rem(t, od);
            (x, if r < iy { r } else { r + side })
        } else {
            let (s, left) = (t - band, ix * side);
            let (s, w, x0) =
                if s < left { (s, ix, 0) } else { (s - left, od - side - ix, ix + side) };
            let (r, x) = self.div_rem(s, w);
            (x0 + x, iy + r)
        };
        CellIndex::new(x as u32, y as u32)
    }

    /// `(t / w, t % w)` through the reciprocal table, exact for
    /// `t < 2³²` and `1 ≤ w ≤ out_d`.
    #[inline]
    fn div_rem(&self, t: u64, w: u64) -> (u64, u64) {
        let q =
            if w == 1 { t } else { ((self.recip[w as usize] as u128 * t as u128) >> 64) as u64 };
        (q, t - q * w)
    }

    /// The exact output distribution [`GridAreaResponse::respond`]
    /// realizes, laid out like [`DiscreteKernel::offset_masses`] and
    /// [`DiscreteKernel::q_hat`]: the probability of each box offset
    /// (row-major from `(-b̂, -b̂)`), then that of any single far cell.
    ///
    /// Slot `i` owns the draws `r` with `⌊r·k / 2⁶⁴⌋ = i`; across them the
    /// low word of `r·k` is an arithmetic progression with step `k` that
    /// starts at `low₀ < k` and never wraps. The coin accepts exactly the
    /// low words below `⌈prob·2⁵³⌉·2¹¹`, so each slot's accept count is a
    /// ceiling division, and every outcome's count of the 2⁶⁴ draws is
    /// exact in `u128` before the final rounding to `f64`. Lemire's
    /// rejection draw is exactly uniform, so every far cell gets the far
    /// outcome's probability divided by the far cell count.
    pub fn realized_masses(&self) -> (Vec<f64>, f64) {
        let side = self.kernel.box_side();
        let k = self.slots.len() as u128;
        // The smallest draw that lands in slot `i`.
        let first = |i: u128| (i << 64).div_ceil(k);
        let mut box_counts = vec![0u128; side * side];
        let mut far = 0u128;
        for (i, slot) in (0u128..).zip(&self.slots) {
            let lo = first(i);
            let n = first(i + 1) - lo;
            let low0 = lo * k - (i << 64);
            let bound = ((slot.prob * (1u64 << 53) as f64).ceil() as u128) << 11;
            let kept = if bound <= low0 { 0 } else { n.min((bound - low0).div_ceil(k)) };
            for (packed, count) in [(slot.keep, kept), (slot.alias, n - kept)] {
                if packed == FAR {
                    far += count;
                } else {
                    box_counts[(packed >> 16) as usize * side + (packed & 0xFFFF) as usize] +=
                        count;
                }
            }
        }
        let scale = 1.0 / (1u128 << 64) as f64;
        let per_far_cell =
            if self.far_cells == 0 { 0.0 } else { far as f64 * scale / self.far_cells as f64 };
        (box_counts.iter().map(|&c| c as f64 * scale).collect(), per_far_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::KernelKind;
    use rand::SeedableRng;

    fn responder(eps: f64, d: u32, b: u32) -> GridAreaResponse {
        GridAreaResponse::new(DiscreteKernel::dam(eps, d, b, KernelKind::Shrunken))
    }

    #[test]
    fn reports_stay_in_output_grid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(70);
        let r = responder(1.0, 5, 2);
        let out_d = r.kernel().out_d();
        for ix in 0..5 {
            for iy in 0..5 {
                for _ in 0..200 {
                    let o = r.respond(CellIndex::new(ix, iy), &mut rng);
                    assert!(o.ix < out_d && o.iy < out_d);
                }
            }
        }
    }

    #[test]
    fn empirical_distribution_matches_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let r = responder(2.0, 4, 2);
        let out_d = r.kernel().out_d() as usize;
        let input = CellIndex::new(1, 3);
        let n = 400_000;
        let mut counts = vec![0.0f64; out_d * out_d];
        for _ in 0..n {
            let o = r.respond(input, &mut rng);
            counts[o.iy as usize * out_d + o.ix as usize] += 1.0;
        }
        for oy in 0..out_d {
            for ox in 0..out_d {
                let expect = r.kernel().mass(input, CellIndex::new(ox as u32, oy as u32));
                let got = counts[oy * out_d + ox] / n as f64;
                assert!(
                    (got - expect).abs() < 6e-3,
                    "out ({ox},{oy}): sampled {got} vs kernel {expect}"
                );
            }
        }
    }

    #[test]
    fn far_field_is_uniform() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(72);
        // Small eps → most mass in the far field.
        let r = responder(0.2, 8, 1);
        let input = CellIndex::new(0, 0);
        let n = 300_000;
        let out_d = r.kernel().out_d() as usize;
        let mut counts = vec![0.0f64; out_d * out_d];
        for _ in 0..n {
            let o = r.respond(input, &mut rng);
            counts[o.iy as usize * out_d + o.ix as usize] += 1.0;
        }
        // Two far cells must have near-identical frequencies.
        let far_a = counts[(out_d - 1) * out_d + (out_d - 1)] / n as f64;
        let far_b = counts[(out_d - 1) * out_d / 2 + (out_d - 1)] / n as f64;
        assert!((far_a - far_b).abs() < 3e-3, "far cells {far_a} vs {far_b}");
    }

    #[test]
    fn d_equals_one_has_no_far_field() {
        // With d = 1 the offset box covers the whole output grid; the far
        // bucket has zero weight and must never fire.
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let r = responder(1.0, 1, 3);
        for _ in 0..5000 {
            let o = r.respond(CellIndex::new(0, 0), &mut rng);
            assert!(o.ix < 7 && o.iy < 7);
        }
    }

    #[test]
    fn works_for_huem_kernels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(74);
        let r = GridAreaResponse::new(DiscreteKernel::huem(2.0, 6, 3));
        let input = CellIndex::new(2, 2);
        let n = 200_000;
        let mut at_center = 0.0;
        for _ in 0..n {
            let o = r.respond(input, &mut rng);
            if o.ix == 5 && o.iy == 5 {
                at_center += 1.0;
            }
        }
        let expect = r.kernel().mass_at_offset(0, 0);
        assert!((at_center / n as f64 - expect).abs() < 4e-3);
    }
}
