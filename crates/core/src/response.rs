//! `GridAreaResponse` (Algorithm 2): per-user randomized reporting.
//!
//! Algorithm 2 samples among four area buckets (pure low, mixed-low,
//! mixed-high, pure high) with weights `⟨1, 1, e^ε, e^ε⟩` and then a cell
//! within the bucket. Every output cell's total mass is
//! `S_p·p̂ + (1 − S_p)·q̂`, so the scheme is one categorical draw over
//! output cells, `M[o, i] = q̂ + δ(o − i)`: a floor `q̂` on every output
//! cell plus the box excess `δ` ([`DiscreteKernel::offset_excess`]) on
//! the `(2b̂+1)²` offsets around the input, the stencil the spectral EM
//! operator convolves with. This implementation draws the mixture whole:
//!
//! * **One alias table** ([`AliasTable`]) over the box offsets weighted
//!   `δ`, then every output cell weighted `q̂`. The weights do not depend
//!   on the input, so the table is built once, in `O(b̂² + d²)`. A box pick
//!   lands at its offset from the input and a floor pick on its own cell,
//!   so output `o` of input `i` gets `q̂ + δ(o − i)`: the kernel itself.
//! * **Pre-decoded slots.** Each 16-byte slot holds the coin threshold and
//!   both outcomes as output-grid linear indices: a floor cell absolute, a
//!   box offset as `dy·out_d + dx`, flagged to add the input's corner
//!   `iy·out_d + ix`. A report is one `u64` draw split exactly as
//!   [`AliasTable::sample`] splits it (the high word of `r·k` is the slot,
//!   the top 53 bits of the low word the coin), one slot load and two
//!   selects: `O(1)`, as in the paper's `O(g)` response cost, with no
//!   second draw, no division and no data-dependent branch.
//!
//! `crates/core/tests/sampler_oracle.rs` checks this draw for draw at
//! every input cell against the plain form ([`AliasTable::sample`] over
//! the same weights, a box pick split by `%`/`/`, a floor pick taken as an
//! absolute cell) and pins the report planes.
//! [`GridAreaResponse::realized_masses`] gives the exact channel the draws
//! realize, for privacy audits of the code rather than of the kernel.

use crate::kernel::DiscreteKernel;
use dam_fo::alias::AliasTable;
use dam_geo::CellIndex;
use rand::Rng;

/// Flags a slot outcome as a box offset, relative to the input's corner;
/// an unflagged outcome is an absolute output cell.
const BOX: u32 = 1 << 31;

/// One alias slot: the coin threshold, the outcome kept below it and the
/// alias taken at or above it, each an output-grid linear index, relative
/// to the input's corner when flagged [`BOX`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    prob: f64,
    keep: u32,
    alias: u32,
}

/// The slot outcome of table outcome `j`: box offset `j` (row-major over
/// a `side`-wide box) packed as `dy·out_d + dx` and flagged, or output
/// cell `j − box_cells`.
fn encode(j: usize, side: usize, out_d: usize) -> u32 {
    let box_cells = side * side;
    if j < box_cells {
        BOX | ((j / side) * out_d + j % side) as u32
    } else {
        (j - box_cells) as u32
    }
}

/// The output-grid linear index slot outcome `v` names for an input whose
/// box corner has linear index `corner`.
#[inline]
fn decode(v: u32, corner: u32) -> u32 {
    (v & !BOX) + if v & BOX != 0 { corner } else { 0 }
}

/// The randomized reporting function `FO.T` for any discrete SAM kernel.
#[derive(Debug, Clone)]
pub struct GridAreaResponse {
    kernel: DiscreteKernel,
    /// Alias slots over the box offsets (`box_side²` outcomes, weighted
    /// `δ`) followed by the output cells (`n_out`, weighted `q̂`).
    slots: Vec<Slot>,
}

impl GridAreaResponse {
    /// Builds the responder for a kernel.
    ///
    /// # Panics
    /// Panics if a box mass of the kernel lies below its floor `q̂` (a
    /// negative `δ`), or the output grid has 2³¹ cells or more.
    pub fn new(kernel: DiscreteKernel) -> Self {
        let (side, out_d, n_out) = (kernel.box_side(), kernel.out_d() as usize, kernel.n_out());
        assert!(n_out < BOX as usize, "output grid too large for a flagged slot outcome");
        let mut weights = kernel.offset_excess();
        assert!(weights.iter().all(|&w| w >= 0.0), "a box mass lies below the floor q̂");
        weights.resize(side * side + n_out, kernel.q_hat());
        let alias = AliasTable::new(&weights);
        let slots = (0..alias.len())
            .map(|i| {
                let (prob, a) = alias.slot(i);
                Slot { prob, keep: encode(i, side, out_d), alias: encode(a, side, out_d) }
            })
            .collect();
        Self { kernel, slots }
    }

    /// The kernel this responder reports through.
    #[inline]
    pub fn kernel(&self) -> &DiscreteKernel {
        &self.kernel
    }

    /// Randomizes one input cell into an output-grid cell.
    #[inline]
    pub fn respond(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> CellIndex {
        let o = self.respond_index(input, rng);
        let out_d = self.kernel.out_d();
        CellIndex::new(o as u32 % out_d, o as u32 / out_d)
    }

    /// [`GridAreaResponse::respond`] as the output cell's row-major linear
    /// index `oy·out_d + ox`, the index of its count in a report plane.
    #[inline]
    pub(crate) fn respond_index(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> usize {
        let d = self.kernel.d();
        assert!(input.ix < d && input.iy < d, "input cell out of grid");
        let wide = rng.next_u64() as u128 * self.slots.len() as u128;
        let slot = self.slots[(wide >> 64) as usize];
        // Top 53 bits of the fractional word, mapped to [0, 1); below 2⁵³,
        // so the signed conversion is exact.
        let coin = ((wide as u64) >> 11) as i64 as f64 * (1.0 / (1u64 << 53) as f64);
        let outcome = if coin < slot.prob { slot.keep } else { slot.alias };
        decode(outcome, input.iy * self.kernel.out_d() + input.ix) as usize
    }

    /// The exact output distribution [`GridAreaResponse::respond`]
    /// realizes: the realized `δ` of each box offset, laid out like
    /// [`DiscreteKernel::offset_masses`] (row-major from `(-b̂, -b̂)`), and
    /// the realized floor of each output cell (row-major). Output `o` of
    /// input `i` gets `floor[o] + δ[o − i]`, with `δ = 0` off the box.
    ///
    /// Slot `i` owns the draws `r` with `⌊r·k / 2⁶⁴⌋ = i`; across them the
    /// low word of `r·k` is an arithmetic progression with step `k` that
    /// starts at `low₀ < k` and never wraps. The coin accepts exactly the
    /// low words below `⌈prob·2⁵³⌉·2¹¹`, so each slot's accept count is a
    /// ceiling division, and every outcome's count of the 2⁶⁴ draws is
    /// exact in `u128` before the final rounding to `f64`.
    pub fn realized_masses(&self) -> (Vec<f64>, Vec<f64>) {
        let (side, out_d) = (self.kernel.box_side(), self.kernel.out_d() as usize);
        let k = self.slots.len() as u128;
        // The smallest draw that lands in slot `i`.
        let first = |i: u128| (i << 64).div_ceil(k);
        let mut box_counts = vec![0u128; side * side];
        let mut floor_counts = vec![0u128; self.kernel.n_out()];
        for (i, slot) in (0u128..).zip(&self.slots) {
            let lo = first(i);
            let n = first(i + 1) - lo;
            let low0 = lo * k - (i << 64);
            let bound = ((slot.prob * (1u64 << 53) as f64).ceil() as u128) << 11;
            let kept = if bound <= low0 { 0 } else { n.min((bound - low0).div_ceil(k)) };
            for (outcome, count) in [(slot.keep, kept), (slot.alias, n - kept)] {
                let o = (outcome & !BOX) as usize;
                if outcome & BOX != 0 {
                    box_counts[o / out_d * side + o % out_d] += count;
                } else {
                    floor_counts[o] += count;
                }
            }
        }
        let scale = 1.0 / (1u128 << 64) as f64;
        let masses = |counts: Vec<u128>| counts.into_iter().map(|c| c as f64 * scale).collect();
        (masses(box_counts), masses(floor_counts))
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
        // With d = 1 the offset box covers the whole output grid, so the
        // floor and the box land on the same cells.
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let r = responder(1.0, 1, 3);
        for _ in 0..5000 {
            let o = r.respond(CellIndex::new(0, 0), &mut rng);
            assert!(o.ix < 7 && o.iy < 7);
        }
    }

    #[test]
    fn every_outcome_decodes_inside_the_output_grid() {
        let huem = GridAreaResponse::new(DiscreteKernel::huem(2.0, 8, 3));
        for r in [responder(1.0, 1, 3), responder(2.0, 5, 0), responder(3.5, 20, 4), huem] {
            let k = r.kernel();
            let (od, side, n_out) = (k.out_d(), k.box_side() as u32, k.n_out());
            // The floor outcomes are the output cells, each exactly once.
            let box_cells = (side * side) as usize;
            let floor: Vec<u32> = (box_cells..box_cells + n_out)
                .map(|j| encode(j, side as usize, od as usize))
                .collect();
            assert_eq!(floor, (0..n_out as u32).collect::<Vec<_>>());
            // Every slot outcome, at every input, lands at its box offset
            // from the input or on an absolute output cell.
            for (ix, iy) in (0..k.d()).flat_map(|iy| (0..k.d()).map(move |ix| (ix, iy))) {
                for v in r.slots.iter().flat_map(|s| [s.keep, s.alias]) {
                    let o = decode(v, iy * od + ix);
                    if v & BOX != 0 {
                        let (dx, dy) = ((v & !BOX) % od, (v & !BOX) / od);
                        assert!(dx < side && dy < side, "{v:#x} leaves the box");
                        assert_eq!((o % od, o / od), (ix + dx, iy + dy));
                    }
                    assert!((o as usize) < n_out, "outcome {v:#x} leaves the grid");
                }
            }
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
