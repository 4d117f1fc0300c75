//! High-level Wasserstein metrics between grid histograms.
//!
//! The experiment section of the paper reports
//! `W₂ = √(W₂²)` between the recovered and actual density distributions,
//! computed with exact LP for small grids and Sinkhorn for large grids, with
//! cell-index coordinates (which is why the reported values can exceed the
//! diameter of the geographic domain — distances are measured in cell
//! units). This module reproduces that measurement convention; its
//! "Sinkhorn" is the grid-separable solver ([`crate::grid`]), and
//! [`W2Solver::Auto`] switches between the two by support size.

use crate::cost::CostMatrix;
use crate::exact::{check_finite, solve_exact, TransportError};
use crate::grid::{grid_sinkhorn_cost, SinkhornParams};
use dam_geo::{Histogram2D, Point};

/// Largest support (positive cells) [`W2Solver::Auto`] still solves with
/// the exact LP. The transportation simplex handles 400-support (d = 20)
/// instances in well under a second, so the paper's whole evaluation
/// range runs exact; the grid solver takes over for larger grids.
const MAX_EXACT_SUPPORT: usize = 400;

/// The W₂ solver (`--w2-solver {auto,exact,grid}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum W2Solver {
    /// Exact LP when both supports have at most 400 cells, the grid
    /// solver otherwise — the paper's size-based switch.
    #[default]
    Auto,
    /// Exact transportation simplex (the paper's "Linear Programming").
    Exact,
    /// Grid-separable Sinkhorn on the full `d × d` grid ([`crate::grid`]):
    /// `O(d³)` per iteration, `O(d²)` memory, no cost matrix (the paper's
    /// "Sinkhorn's algorithm").
    Grid,
}

impl W2Solver {
    /// Every solver, in CLI listing order.
    pub const ALL: [W2Solver; 3] = [W2Solver::Auto, W2Solver::Exact, W2Solver::Grid];

    /// The CLI label.
    pub fn label(self) -> &'static str {
        match self {
            W2Solver::Auto => "auto",
            W2Solver::Exact => "exact",
            W2Solver::Grid => "grid",
        }
    }

    /// Parses a CLI label.
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.label() == s)
    }
}

/// The solver [`W2Solver::Auto`] runs for support sizes `m`, `n`: the
/// exact LP (unbiased, and measured faster than Sinkhorn at paper scale)
/// when both fit under [`MAX_EXACT_SUPPORT`], the grid solver otherwise.
fn resolve_auto(m: usize, n: usize) -> W2Solver {
    if m <= MAX_EXACT_SUPPORT && n <= MAX_EXACT_SUPPORT {
        W2Solver::Exact
    } else {
        W2Solver::Grid
    }
}

/// Extracts the cell-unit support of a histogram: positions are cell index
/// centers `(ix + ½, iy + ½)` so distances are in multiples of the cell
/// side, matching the paper's reported scale.
fn cell_unit_support(h: &Histogram2D) -> (Vec<Point>, Vec<f64>) {
    let mut pts = Vec::new();
    let mut ws = Vec::new();
    let g = h.grid();
    for (i, &v) in h.values().iter().enumerate() {
        if v > 0.0 {
            let c = g.unflat(i);
            pts.push(Point::new(c.ix as f64 + 0.5, c.iy as f64 + 0.5));
            ws.push(v);
        }
    }
    (pts, ws)
}

/// Bumps the `w2_solver_selected_<label>` counter on the global
/// registry — the observability record of which concrete solver each W₂
/// evaluation actually ran (Auto resolves before counting, so `auto`
/// itself never appears).
fn note_solver(solver: W2Solver) {
    dam_obs::global()
        .counter(&format!("w2_solver_selected_{}", solver.label()), dam_obs::Plane::Deterministic)
        .incr();
}

/// `W₂` between two histograms on same-shape grids, in cell units, using
/// `solver` (`params` tunes the grid solver; the exact LP ignores it).
pub fn w2(
    a: &Histogram2D,
    b: &Histogram2D,
    solver: W2Solver,
    params: SinkhornParams,
) -> Result<f64, TransportError> {
    let d = a.grid().d();
    assert_eq!(d, b.grid().d(), "cell-unit W2 requires grids of the same resolution");
    // Before any solver is chosen: support extraction keeps only `v > 0`,
    // so a NaN or −∞ cell would otherwise vanish from the exact path.
    check_finite(a.values())?;
    check_finite(b.values())?;
    let solver = match solver {
        W2Solver::Auto => {
            let support = |h: &Histogram2D| h.values().iter().filter(|&&v| v > 0.0).count();
            resolve_auto(support(a), support(b))
        }
        concrete => concrete,
    };
    let sq = if solver == W2Solver::Grid {
        // The grid solver works on the full row-major value vectors (its
        // cell-index cost equals the cell-center cost below: the +½
        // offsets cancel in differences), so it needs no support
        // extraction and no cost matrix.
        note_solver(solver);
        grid_sinkhorn_cost(a.values(), b.values(), d as usize, params)?
    } else {
        let (pa, wa) = cell_unit_support(a);
        let (pb, wb) = cell_unit_support(b);
        if pa.is_empty() || pb.is_empty() {
            return Err(TransportError::EmptyDistribution);
        }
        let cost = CostMatrix::euclidean_pow(&pa, &pb, 2);
        note_solver(solver);
        solve_exact(&wa, &wb, &cost)?.cost
    };
    Ok(sq.max(0.0).sqrt())
}

/// `W₂` with the exact solver.
pub fn w2_exact(a: &Histogram2D, b: &Histogram2D) -> Result<f64, TransportError> {
    w2(a, b, W2Solver::Exact, SinkhornParams::default())
}

/// `W₂` with the grid-separable Sinkhorn solver under `params`.
pub fn w2_grid_sinkhorn(
    a: &Histogram2D,
    b: &Histogram2D,
    params: SinkhornParams,
) -> Result<f64, TransportError> {
    w2(a, b, W2Solver::Grid, params)
}

/// `W₂` with the default size-based solver selection.
pub fn w2_auto(a: &Histogram2D, b: &Histogram2D) -> Result<f64, TransportError> {
    w2(a, b, W2Solver::Auto, SinkhornParams::default())
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
        // The exact solver's anti-degeneracy perturbation leaves O(1e-11)
        // squared cost, i.e. O(1e-5) on the W2 scale.
        assert!(w2_exact(&h, &h).unwrap() < 1e-4);
    }

    #[test]
    fn w2_of_shifted_delta_is_cell_distance() {
        let mut a = Histogram2D::zeros(grid(8));
        let mut b = Histogram2D::zeros(grid(8));
        a.add_cell(CellIndex::new(0, 0));
        b.add_cell(CellIndex::new(3, 4));
        // One atom moved 5 cell units.
        let w = w2_exact(&a, &b).unwrap();
        assert!((w - 5.0).abs() < 1e-9, "w {w}");
    }

    #[test]
    fn auto_switches_solver_consistently() {
        let mut a = Histogram2D::zeros(grid(5));
        let mut b = Histogram2D::zeros(grid(5));
        for i in 0..25 {
            a.values_mut()[i] = (i % 4 + 1) as f64;
            b.values_mut()[(i + 7) % 25] = (i % 4 + 1) as f64;
        }
        let exact = w2_exact(&a, &b).unwrap();
        let auto = w2_auto(&a, &b).unwrap();
        assert!((exact - auto).abs() < 1e-9, "auto must pick exact at d=5");
        let gridv = w2_grid_sinkhorn(&a, &b, SinkhornParams::default()).unwrap();
        assert!((gridv - exact).abs() < 0.05 * exact.max(0.1), "grid {gridv} exact {exact}");
    }

    #[test]
    fn auto_resolves_by_support_and_grid_structure() {
        // Small supports → exact, whatever the grid resolution.
        assert_eq!(resolve_auto(400, 400), W2Solver::Exact);
        assert_eq!(resolve_auto(100, 50), W2Solver::Exact);
        // Either support past the limit → the separable solver (d = 64
        // full support is the headline regime).
        assert_eq!(resolve_auto(4096, 4096), W2Solver::Grid);
        assert_eq!(resolve_auto(1024, 900), W2Solver::Grid);
        assert_eq!(resolve_auto(401, 10), W2Solver::Grid);
        assert_eq!(resolve_auto(10, 401), W2Solver::Grid);
    }

    #[test]
    fn w2_solver_labels_round_trip() {
        for s in W2Solver::ALL {
            assert_eq!(W2Solver::from_label(s.label()), Some(s));
        }
        assert_eq!(W2Solver::from_label("lp"), None);
        assert_eq!(W2Solver::from_label("sinkhorn"), None);
    }

    #[test]
    fn grid_solver_handles_a_large_grid_auto_dispatch() {
        // d = 21 with full supports: 441 atoms > the exact limit of 400,
        // so Auto must route to the grid solver — and, full supports
        // giving both the same regularisation scale, reproduce the dense
        // reference.
        let d = 21;
        let mut a = Histogram2D::zeros(grid(d));
        let mut b = Histogram2D::zeros(grid(d));
        for i in 0..(d * d) as usize {
            a.values_mut()[i] = 1.0 + (i % 7) as f64;
            b.values_mut()[i] = 1.0 + ((i * 5 + 3) % 11) as f64;
        }
        let (a, b) = (a.normalized(), b.normalized());
        let auto = w2_auto(&a, &b).unwrap();
        let gridv = w2_grid_sinkhorn(&a, &b, SinkhornParams::default()).unwrap();
        assert_eq!(auto, gridv, "auto at d=21 full support must be the grid solver");
        let (pa, _) = cell_unit_support(&a);
        let cost = CostMatrix::euclidean_pow(&pa, &pa, 2);
        let dense = crate::grid::tests::dense_sinkhorn_cost(
            a.values(),
            b.values(),
            &cost,
            SinkhornParams::default(),
        )
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
                assert_eq!(w2_exact(a, b), want, "exact, cell 5 = {bad}");
                assert_eq!(w2_auto(a, b), want, "auto, cell 5 = {bad}");
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
        let _ = w2_exact(&a, &b);
    }
}
