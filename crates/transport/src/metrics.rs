//! High-level Wasserstein metrics between grid histograms.
//!
//! The experiment section of the paper reports
//! `W₂ = √(W₂²)` between the recovered and actual density distributions,
//! with cell-index coordinates (which is why the reported values can
//! exceed the diameter of the geographic domain — distances are measured
//! in cell units). [`w2`] solves the transport LP exactly at every grid
//! size: a full-support pair costs about 78 ms at d = 20 and 0.94 s at
//! d = 32 (`BENCH_w2.json`). The paper approximates large grids with
//! Sinkhorn; a caller who accepts its entropic bias (it never reads 0,
//! not even between equal histograms) calls [`w2_grid_sinkhorn`] by name.

use crate::exact::{solve_exact, TransportError};
use crate::grid::{grid_sinkhorn_cost, SinkhornParams};
use dam_geo::Histogram2D;

/// The shared side length `d` of two histograms.
///
/// # Panics
/// Panics unless `a` and `b` have the same resolution.
fn assert_same_resolution(a: &Histogram2D, b: &Histogram2D) -> usize {
    let d = a.grid().d();
    assert_eq!(d, b.grid().d(), "cell-unit W2 requires grids of the same resolution");
    d as usize
}

/// Squared distance, in cell units, between the centres of the cells at
/// flat indices `i` and `j` of a `d × d` grid. The centres' +½ offsets
/// cancel in differences, so the cost reads straight off the indices.
fn cell_cost(d: usize) -> impl Fn(usize, usize) -> f64 + Copy {
    move |i, j| {
        let dx = (i % d) as f64 - (j % d) as f64;
        let dy = (i / d) as f64 - (j / d) as f64;
        dx * dx + dy * dy
    }
}

/// `W₂` between two histograms on same-shape grids, in cell units: the
/// exact network simplex (the paper's "Linear Programming") under the
/// squared cell-unit cost, at every support size — about 0.94 s for a
/// full-support d = 32 pair (`BENCH_w2.json`).
pub fn w2(a: &Histogram2D, b: &Histogram2D) -> Result<f64, TransportError> {
    let d = assert_same_resolution(a, b);
    Ok(solve_exact(a.values(), b.values(), cell_cost(d))?.cost.max(0.0).sqrt())
}

/// `W₂` with the grid-separable Sinkhorn solver under `params` (the
/// paper's "Sinkhorn's algorithm"): `O(d³)` per iteration, `O(d²)`
/// memory, no cost matrix. Its cell-index cost equals the cell-center
/// cost of [`w2`], since the +½ offsets cancel in differences; its value
/// is an entropic upper bound on [`w2`]'s.
pub fn w2_grid_sinkhorn(
    a: &Histogram2D,
    b: &Histogram2D,
    params: SinkhornParams,
) -> Result<f64, TransportError> {
    let d = assert_same_resolution(a, b);
    Ok(grid_sinkhorn_cost(a.values(), b.values(), d, params)?.max(0.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::{BoundingBox, CellIndex, Grid2D, Histogram2D};

    fn grid(d: u32) -> Grid2D {
        Grid2D::new(BoundingBox::unit(), d)
    }

    #[test]
    fn w2_of_identical_histograms_is_zero() {
        let mut h = Histogram2D::zeros(grid(4));
        h.add_cell(CellIndex::new(1, 1));
        h.add_cell(CellIndex::new(3, 2));
        // A uniform d = 20 histogram ties every reduced cost, so the
        // second input pins termination under full degeneracy.
        let mut uniform = Histogram2D::zeros(grid(20));
        uniform.values_mut().fill(1.0 / 400.0);
        for h in [h, uniform] {
            // The exact solver's anti-degeneracy perturbation leaves
            // O(1e-11) squared cost, i.e. O(1e-5) on the W2 scale.
            let w = w2(&h, &h).unwrap();
            assert!(w < 1e-4, "d = {}: w2 {w}", h.grid().d());
        }
    }

    /// `BENCH_w2.json`'s histogram: a Gaussian bump at `(cx, cy)`
    /// (grid-relative) over a flat background.
    fn bump(d: u32, cx: f64, cy: f64) -> Histogram2D {
        let mut h = Histogram2D::zeros(grid(d));
        let (s, du) = (f64::from(d), d as usize);
        for (i, v) in h.values_mut().iter_mut().enumerate() {
            let (x, y) = ((i % du) as f64 / s, (i / du) as f64 / s);
            *v = (-(((x - cx).powi(2) + (y - cy).powi(2)) / 0.02)).exp() + 0.05;
        }
        h.normalized()
    }

    /// Two full-support `d × d` histograms with different cell patterns.
    fn full_pair(d: u32) -> (Histogram2D, Histogram2D) {
        let mut a = Histogram2D::zeros(grid(d));
        let mut b = Histogram2D::zeros(grid(d));
        for i in 0..(d * d) as usize {
            a.values_mut()[i] = 1.0 + (i % 7) as f64;
            b.values_mut()[i] = 1.0 + ((i * 5 + 3) % 11) as f64;
        }
        (a.normalized(), b.normalized())
    }

    #[test]
    fn w2_exact_matches_pinned_values() {
        // Pinned from the MODI transportation simplex that preceded the
        // network simplex (release build); any exact LP solver must
        // reproduce the optimum to roundoff.
        let mut sparse = Histogram2D::zeros(grid(10));
        for i in (0..100).step_by(7) {
            sparse.values_mut()[i] = 1.0 + (i % 5) as f64;
        }
        let cases = [
            ("bump pair d=10", bump(10, 0.3, 0.35), bump(10, 0.65, 0.6), 2.8322251127687625),
            ("bump pair d=20", bump(20, 0.3, 0.35), bump(20, 0.65, 0.6), 5.583847666170642),
            ("near pair d=20", bump(20, 0.3, 0.35), bump(20, 0.33, 0.35), 0.5769623929315989),
            ("sparse vs full", sparse.normalized(), bump(10, 0.5, 0.5), 2.066595288360256),
        ];
        for (name, a, b, want) in &cases {
            let got = w2(a, b).unwrap();
            assert!((got - want).abs() <= 1e-9 * want, "{name}: got {got} want {want}");
        }
    }

    #[test]
    fn w2_of_shifted_delta_is_cell_distance() {
        let mut a = Histogram2D::zeros(grid(8));
        let mut b = Histogram2D::zeros(grid(8));
        a.add_cell(CellIndex::new(0, 0));
        b.add_cell(CellIndex::new(3, 4));
        // One atom moved 5 cell units.
        let w = w2(&a, &b).unwrap();
        assert!((w - 5.0).abs() < 1e-9, "w {w}");
    }

    #[test]
    fn w2_is_the_exact_lp_past_400_cells() {
        // d = 21 full supports hold 441 cells each: the LP reads 0 for
        // two equal histograms, where an entropic solver never does.
        let (a, b) = full_pair(21);
        let w = w2(&a, &a).unwrap();
        assert!(w < 1e-4, "w2(h, h) = {w}");
        let exact = solve_exact(a.values(), b.values(), cell_cost(21)).unwrap();
        assert_eq!(w2(&a, &b).unwrap().to_bits(), exact.cost.max(0.0).sqrt().to_bits());
    }

    #[test]
    fn auto_switches_solver_consistently() {
        // The grid solver's entropic value stays within 5% of the exact
        // LP's on a small grid.
        let mut a = Histogram2D::zeros(grid(5));
        let mut b = Histogram2D::zeros(grid(5));
        for i in 0..25 {
            a.values_mut()[i] = (i % 4 + 1) as f64;
            b.values_mut()[(i + 7) % 25] = (i % 4 + 1) as f64;
        }
        let exact = w2(&a, &b).unwrap();
        let gridv = w2_grid_sinkhorn(&a, &b, SinkhornParams::default()).unwrap();
        assert!((gridv - exact).abs() < 0.05 * exact.max(0.1), "grid {gridv} exact {exact}");
    }

    #[test]
    fn grid_solver_handles_a_large_grid_auto_dispatch() {
        // d = 21 with full supports: both derive the same regularisation
        // scale, so the grid solver must reproduce the dense reference.
        let (a, b) = full_pair(21);
        let params = SinkhornParams::default();
        let gridv = w2_grid_sinkhorn(&a, &b, params).unwrap();
        let dense =
            crate::grid::tests::dense_sinkhorn_cost(a.values(), b.values(), cell_cost(21), params)
                .sqrt();
        assert!((gridv - dense).abs() <= 1e-9 * dense, "grid {gridv} dense {dense}");
    }

    #[test]
    fn non_finite_cells_are_rejected_on_every_path() {
        // Support extraction keeps only positive cells, so without the
        // up-front check the exact path silently dropped NaN / −∞ (and
        // misreported a one-sided NaN as unbalanced mass).
        let base = |bad: f64| {
            let mut h = Histogram2D::zeros(grid(4));
            for (i, v) in h.values_mut().iter_mut().enumerate() {
                *v = 1.0 + (i % 3) as f64;
            }
            h.values_mut()[5] = bad;
            h
        };
        let clean = base(1.0);
        let want = Err(TransportError::NonFinite { index: 5 });
        for bad in [f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let h = base(bad);
            for (a, b) in [(&h, &h), (&h, &clean), (&clean, &h)] {
                assert_eq!(w2(a, b), want, "exact, cell 5 = {bad}");
                assert_eq!(
                    w2_grid_sinkhorn(a, b, SinkhornParams::default()),
                    want,
                    "grid, cell 5 = {bad}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "same resolution")]
    fn rejects_mismatched_grids() {
        let a = Histogram2D::zeros(grid(4));
        let b = Histogram2D::zeros(grid(5));
        let _ = w2(&a, &b);
    }
}
