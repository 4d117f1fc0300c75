//! Discrete reporting kernels over the grid (§VI-A).
//!
//! A [`DiscreteKernel`] holds, for one `(ε, d, b̂)` configuration, the
//! probability mass assigned to every output cell given an input cell. The
//! output grid is the input grid dilated by `b̂` cells (side `d + 2b̂`).
//! Because the disk geometry is translation invariant, only the
//! `(2b̂+1)²` "box" of offsets around the input cell plus a single
//! far-field mass need to be stored.
//!
//! * DAM / DAM-NS / exact-intersection: every output cell gets
//!   `S_p·p̂ + (1 − S_p)·q̂` where `S_p` is its high-area fraction and
//!   `p̂ = e^ε / (S_H e^ε + S_L)`, `q̂ = 1 / (S_H e^ε + S_L)` — the paper's
//!   Equation for `p̂`/`q̂` with `S_L = (d + 2b̂)² − S_H`.
//! * HUEM (Appendix A): the disk is split into `b̂` fan rings with
//!   geometrically decaying densities `q·e^{(1 − (j−1)/b̂)ε}`; boundary
//!   cells mix adjacent ring densities weighted by per-ring shrunken areas.
//!
//! Every kernel is a valid probability distribution over output cells and
//! satisfies the ε-LDP mass-ratio bound for all input pairs (tested).

use crate::conv::FftChannel;
use crate::grid::{DiskGeometry, KernelKind};
use dam_fo::em::Channel;
use dam_geo::CellIndex;

/// Which mechanism family the kernel encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// Two-level DAM-style kernel with some [`KernelKind`] geometry.
    Dam(KernelKind),
    /// Ring-discretised HUEM (Appendix A).
    Huem,
}

/// A translation-invariant discrete reporting kernel.
#[derive(Debug, Clone)]
pub struct DiscreteKernel {
    eps: f64,
    d: u32,
    b_hat: u32,
    out_d: u32,
    family: KernelFamily,
    /// Probability mass per offset in the `(2b̂+1)²` box, row-major with
    /// `(dx, dy) = (-b̂, -b̂)` first.
    offset_mass: Vec<f64>,
    /// Probability mass of every output cell outside the box.
    far_mass: f64,
    /// `p̂` (only meaningful for the DAM family).
    p_hat: f64,
}

impl DiscreteKernel {
    /// Builds a DAM-family kernel (`kind` selects shrunken / non-shrunken /
    /// exact geometry).
    ///
    /// A radius of **zero** is the legitimate large-ε limit of §V-C
    /// (`⌊b·d⌋ = 0`): the disk shrinks inside one cell and the mechanism
    /// degenerates into randomized response over the `d²` cells (no
    /// output-domain dilation), which this constructor handles directly.
    ///
    /// # Panics
    /// Panics unless `eps > 0` and `d ≥ 1`.
    pub fn dam(eps: f64, d: u32, b_hat: u32, kind: KernelKind) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        assert!(d >= 1, "grid must have at least one cell");
        if b_hat == 0 {
            return Self::degenerate(eps, d, KernelFamily::Dam(kind));
        }
        let geo = DiskGeometry::new(b_hat, kind);
        let e = eps.exp();
        let out_d = d + 2 * b_hat;
        let n_out = (out_d as f64) * (out_d as f64);
        let sh = geo.sh();
        let sl = n_out - sh;
        let q_hat = 1.0 / (sh * e + sl);
        let p_hat = e * q_hat;
        let side = geo.box_side();
        let mut offset_mass = vec![0.0f64; side * side];
        for (k, (_, _, h)) in geo.offsets().enumerate() {
            offset_mass[k] = h * p_hat + (1.0 - h) * q_hat;
        }
        Self {
            eps,
            d,
            b_hat,
            out_d,
            family: KernelFamily::Dam(kind),
            offset_mass,
            far_mass: q_hat,
            p_hat,
        }
    }

    /// Builds the ring-discretised HUEM kernel of Appendix A.
    ///
    /// Ring `j ∈ [1, b̂]` (radial range `(j−1, j]`) carries relative
    /// density `e^{(1 − (j−1)/b̂)ε}`; the area of each offset cell inside
    /// ring `j` is the difference of shrunken areas at radii `j` and
    /// `j − 1`, and everything outside the disk has relative density 1.
    pub fn huem(eps: f64, d: u32, b_hat: u32) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        assert!(d >= 1, "grid must have at least one cell");
        if b_hat == 0 {
            // HUEM's rings vanish with the disk; same degenerate limit.
            return Self::degenerate(eps, d, KernelFamily::Huem);
        }
        let out_d = d + 2 * b_hat;
        let n_out = (out_d as f64) * (out_d as f64);
        let side = 2 * b_hat as usize + 1;
        // Per-radius cumulative high fractions, shrunken geometry.
        let geos: Vec<DiskGeometry> =
            (1..=b_hat).map(|r| DiskGeometry::new(r, KernelKind::Shrunken)).collect();
        let rel_density = |j: u32| -> f64 { ((1.0 - (j as f64 - 1.0) / b_hat as f64) * eps).exp() };
        let b = b_hat as i64;
        let mut rel = vec![0.0f64; side * side];
        let mut total_rel = 0.0;
        for dy in -b..=b {
            for dx in -b..=b {
                let mut inside_prev = 0.0;
                let mut w = 0.0;
                for j in 1..=b_hat {
                    let inside_j = geos[(j - 1) as usize].high_fraction(dx, dy);
                    let ring_area = (inside_j - inside_prev).max(0.0);
                    w += rel_density(j) * ring_area;
                    inside_prev = inside_prev.max(inside_j);
                }
                // Remaining cell area is outside the disk: relative density 1.
                w += (1.0 - inside_prev).max(0.0);
                let idx = ((dy + b) as usize) * side + (dx + b) as usize;
                rel[idx] = w;
                total_rel += w;
            }
        }
        let box_count = (side * side) as f64;
        // Normalise: box cells carry `rel·q`, far cells carry `q`.
        let q = 1.0 / (total_rel + (n_out - box_count));
        let offset_mass: Vec<f64> = rel.iter().map(|w| w * q).collect();
        Self {
            eps,
            d,
            b_hat,
            out_d,
            family: KernelFamily::Huem,
            offset_mass,
            far_mass: q,
            p_hat: q * eps.exp(),
        }
    }

    /// The `b̂ = 0` limit shared by every SAM family: the high region is
    /// exactly the input cell, the output grid equals the input grid, and
    /// the kernel is k-ary randomized response with
    /// `p̂ = e^ε / (e^ε + d² − 1)`.
    fn degenerate(eps: f64, d: u32, family: KernelFamily) -> Self {
        let n_out = (d as f64) * (d as f64);
        let e = eps.exp();
        let q_hat = 1.0 / (e + n_out - 1.0);
        Self {
            eps,
            d,
            b_hat: 0,
            out_d: d,
            family,
            offset_mass: vec![e * q_hat],
            far_mass: q_hat,
            p_hat: e * q_hat,
        }
    }

    /// Privacy budget.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Input grid side (cells).
    #[inline]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Disk radius (cells).
    #[inline]
    pub fn b_hat(&self) -> u32 {
        self.b_hat
    }

    /// Output grid side (`d + 2b̂`).
    #[inline]
    pub fn out_d(&self) -> u32 {
        self.out_d
    }

    /// Number of output cells.
    #[inline]
    pub fn n_out(&self) -> usize {
        (self.out_d as usize) * (self.out_d as usize)
    }

    /// Mechanism family.
    #[inline]
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// High-probability mass `p̂` (per unit cell fully inside the disk).
    #[inline]
    pub fn p_hat(&self) -> f64 {
        self.p_hat
    }

    /// Low-probability mass `q̂` (far-field cells).
    #[inline]
    pub fn q_hat(&self) -> f64 {
        self.far_mass
    }

    /// Side of the offset box (`2b̂+1`).
    #[inline]
    pub fn box_side(&self) -> usize {
        2 * self.b_hat as usize + 1
    }

    /// Mass at a given offset from the input cell (far-field mass if the
    /// offset falls outside the box).
    pub fn mass_at_offset(&self, dx: i64, dy: i64) -> f64 {
        let b = self.b_hat as i64;
        if dx.abs() > b || dy.abs() > b {
            return self.far_mass;
        }
        let side = self.box_side();
        self.offset_mass[((dy + b) as usize) * side + (dx + b) as usize]
    }

    /// Raw offset-box masses, row-major from `(-b̂, -b̂)`.
    #[inline]
    pub fn offset_masses(&self) -> &[f64] {
        &self.offset_mass
    }

    /// Probability that input cell `input` (input-grid coordinates) is
    /// reported as output cell `out` (output-grid coordinates).
    pub fn mass(&self, input: CellIndex, out: CellIndex) -> f64 {
        debug_assert!(input.ix < self.d && input.iy < self.d);
        debug_assert!(out.ix < self.out_d && out.iy < self.out_d);
        let b = self.b_hat as i64;
        let dx = out.ix as i64 - (input.ix as i64 + b);
        let dy = out.iy as i64 - (input.iy as i64 + b);
        self.mass_at_offset(dx, dy)
    }

    /// The EM operator PostProcess runs on: the kernel's
    /// translation-invariant structure evaluated as circular convolutions
    /// on a zero-padded `next_fft_side(d + 2b̂)` grid (the smallest even
    /// `2^a·3^b` side), O(n² log n) per EM iteration with the kernel
    /// spectrum computed once, split across up to `threads` threads
    /// (`None` = available parallelism). [`DiscreteKernel::channel`] is
    /// the dense reference it is tested against.
    pub fn fft_channel(&self, threads: Option<usize>) -> FftChannel {
        FftChannel::new(self, threads)
    }

    /// The full `n_out × n_in` dense channel matrix — O(n_out·n_in)
    /// memory and per-EM-iteration work. Kept as the reference
    /// implementation for equivalence tests and benchmarks; production
    /// post-processing goes through [`DiscreteKernel::fft_channel`].
    pub fn channel(&self) -> Channel {
        let n_in = (self.d as usize) * (self.d as usize);
        let n_out = self.n_out();
        let mut data = vec![0.0f64; n_out * n_in];
        for iy in 0..self.d {
            for ix in 0..self.d {
                let i = (iy as usize) * self.d as usize + ix as usize;
                for oy in 0..self.out_d {
                    for ox in 0..self.out_d {
                        let o = (oy as usize) * self.out_d as usize + ox as usize;
                        data[o * n_in + i] =
                            self.mass(CellIndex::new(ix, iy), CellIndex::new(ox, oy));
                    }
                }
            }
        }
        Channel::new(n_out, n_in, data)
    }

    /// Largest mass ratio over all (output, input-pair) combinations; must
    /// be at most `e^ε` for ε-LDP. Exposed for tests and audits.
    pub fn worst_case_ratio(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for &m in &self.offset_mass {
            min = min.min(m);
            max = max.max(m);
        }
        min = min.min(self.far_mass);
        max = max.max(self.far_mass);
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_mass(k: &DiscreteKernel) -> f64 {
        // Sum of one input cell's full output distribution.
        let box_total: f64 = k.offset_masses().iter().sum();
        let far_cells = k.n_out() as f64 - (k.box_side() * k.box_side()) as f64;
        box_total + far_cells * k.q_hat()
    }

    #[test]
    fn dam_kernel_normalises() {
        for &(eps, d, b) in &[(1.0, 5, 2), (3.5, 15, 3), (0.7, 4, 4), (9.0, 20, 1)] {
            for kind in
                [KernelKind::Shrunken, KernelKind::NonShrunken, KernelKind::ExactIntersection]
            {
                let k = DiscreteKernel::dam(eps, d, b, kind);
                let m = total_mass(&k);
                assert!((m - 1.0).abs() < 1e-9, "eps {eps} d {d} b {b} {kind:?}: {m}");
            }
        }
    }

    #[test]
    fn huem_kernel_normalises() {
        for &(eps, d, b) in &[(1.0, 5, 2), (3.5, 15, 3), (0.7, 4, 4)] {
            let k = DiscreteKernel::huem(eps, d, b);
            let m = total_mass(&k);
            assert!((m - 1.0).abs() < 1e-9, "eps {eps} d {d} b {b}: {m}");
        }
    }

    #[test]
    fn kernels_satisfy_ldp_ratio() {
        for &(eps, d, b) in &[(1.0, 5, 2), (3.5, 15, 3), (5.0, 10, 2)] {
            let dam = DiscreteKernel::dam(eps, d, b, KernelKind::Shrunken);
            let huem = DiscreteKernel::huem(eps, d, b);
            for k in [&dam, &huem] {
                let r = k.worst_case_ratio();
                assert!(
                    r <= eps.exp() * (1.0 + 1e-9),
                    "eps {eps} d {d} b {b}: ratio {r} > e^eps {}",
                    eps.exp()
                );
            }
        }
    }

    #[test]
    fn dam_matches_paper_p_q_formula() {
        // For the DAM family, p̂/q̂ = e^ε exactly and
        // p̂ = e^ε / (S_H e^ε + S_L).
        let (eps, d, b) = (2.0, 8, 3);
        let k = DiscreteKernel::dam(eps, d, b, KernelKind::Shrunken);
        assert!((k.p_hat() / k.q_hat() - eps.exp()).abs() < 1e-9);
        let sh = DiskGeometry::new(b, KernelKind::Shrunken).sh();
        let sl = k.n_out() as f64 - sh;
        assert!((k.p_hat() - eps.exp() / (sh * eps.exp() + sl)).abs() < 1e-15);
    }

    #[test]
    fn center_offset_carries_peak_mass() {
        let k = DiscreteKernel::dam(3.0, 10, 3, KernelKind::Shrunken);
        let center = k.mass_at_offset(0, 0);
        for (i, &m) in k.offset_masses().iter().enumerate() {
            assert!(m <= center + 1e-15, "offset {i} exceeds center mass");
        }
        assert!((center - k.p_hat()).abs() < 1e-15);
        let h = DiscreteKernel::huem(3.0, 10, 3);
        assert!((h.mass_at_offset(0, 0) - h.q_hat() * 3.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn huem_mass_decays_radially() {
        let k = DiscreteKernel::huem(3.0, 10, 5);
        // Along the +x axis the mass must be non-increasing.
        let mut prev = f64::INFINITY;
        for dx in 0..=5i64 {
            let m = k.mass_at_offset(dx, 0);
            assert!(m <= prev + 1e-12, "dx {dx}: {m} > {prev}");
            prev = m;
        }
        // HUEM's profile lies strictly between far-field and peak.
        assert!(k.mass_at_offset(3, 0) > k.q_hat());
        assert!(k.mass_at_offset(3, 0) < k.mass_at_offset(0, 0));
    }

    #[test]
    fn mass_lookup_respects_translation() {
        let k = DiscreteKernel::dam(1.5, 6, 2, KernelKind::Shrunken);
        // Input (0,0) → output (b̂, b̂) is the centered offset.
        let m1 = k.mass(CellIndex::new(0, 0), CellIndex::new(2, 2));
        let m2 = k.mass(CellIndex::new(3, 4), CellIndex::new(5, 6));
        assert_eq!(m1, m2);
        assert!((m1 - k.p_hat()).abs() < 1e-15);
    }

    #[test]
    fn degenerate_zero_radius_is_randomized_response() {
        for family in ["dam", "huem"] {
            let k = if family == "dam" {
                DiscreteKernel::dam(9.0, 15, 0, KernelKind::Shrunken)
            } else {
                DiscreteKernel::huem(9.0, 15, 0)
            };
            assert_eq!(k.out_d(), 15, "{family}: no dilation at b̂ = 0");
            let e = 9.0f64.exp();
            let expect_p = e / (e + 224.0);
            assert!((k.p_hat() - expect_p).abs() < 1e-12, "{family}");
            assert!((total_mass(&k) - 1.0).abs() < 1e-12, "{family}");
            assert!(k.worst_case_ratio() <= e * (1.0 + 1e-12), "{family}");
            // At eps = 9 the true cell is reported almost always.
            assert!(k.p_hat() > 0.97, "{family}: p̂ {}", k.p_hat());
        }
    }

    #[test]
    fn channel_is_column_stochastic() {
        let k = DiscreteKernel::dam(2.0, 4, 2, KernelKind::Shrunken);
        // Channel::new asserts column-stochasticity internally.
        let ch = k.channel();
        assert_eq!(ch.n_in, 16);
        assert_eq!(ch.n_out, 64);
    }

    #[test]
    fn shrinkage_gives_mixed_cells_intermediate_mass() {
        // Shrinkage is exactly the difference between DAM and DAM-NS:
        // mixed cells get mass strictly between q̂ and p̂ under the
        // shrunken kernel and exactly q̂ under the non-shrunken one.
        use crate::grid::{classify_offset, CellClass};
        let s = DiscreteKernel::dam(2.0, 10, 4, KernelKind::Shrunken);
        let ns = DiscreteKernel::dam(2.0, 10, 4, KernelKind::NonShrunken);
        let b = 4i64;
        let mut saw_mixed = false;
        for dy in -b..=b {
            for dx in -b..=b {
                if classify_offset(dx, dy, 4) == CellClass::Mixed {
                    saw_mixed = true;
                    let ms = s.mass_at_offset(dx, dy);
                    if crate::grid::shrunken_area(dx, dy, 4) > 0.0 {
                        assert!(ms > s.q_hat() && ms < s.p_hat(), "({dx},{dy}): {ms}");
                    }
                    assert_eq!(ns.mass_at_offset(dx, dy), ns.q_hat(), "({dx},{dy})");
                }
            }
        }
        assert!(saw_mixed, "b̂ = 4 must produce mixed cells");
        // The shrunken kernel spreads the same e^ε budget over a larger
        // high area, so its peak is below the non-shrunken peak.
        assert!(s.p_hat() < ns.p_hat());
    }
}
