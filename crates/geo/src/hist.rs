//! Histograms (cell-count maps) over a [`Grid2D`].
//!
//! A normalized histogram is the discrete distribution `D ∈ R^χ` of
//! Definition 3 (PSDEP); the estimators in this workspace consume and
//! produce these.

use crate::grid::{CellIndex, Grid2D};
use crate::point::Point;

/// Counts (or probability mass) per grid cell, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2D {
    grid: Grid2D,
    values: Vec<f64>,
}

impl Histogram2D {
    /// An all-zero histogram over `grid`.
    pub fn zeros(grid: Grid2D) -> Self {
        let n = grid.n_cells();
        Self { grid, values: vec![0.0; n] }
    }

    /// Builds a histogram by counting `points` into `grid` cells.
    pub fn from_points(grid: Grid2D, points: &[Point]) -> Self {
        let mut h = Self::zeros(grid);
        for &p in points {
            let c = h.grid.cell_of(p);
            let i = h.grid.flat(c);
            h.values[i] += 1.0;
        }
        h
    }

    /// Builds a histogram from raw row-major values.
    ///
    /// # Panics
    /// Panics if `values.len() != grid.n_cells()` or any value is negative
    /// or non-finite.
    pub fn from_values(grid: Grid2D, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), grid.n_cells(), "value vector does not match grid size");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "histogram values must be finite and non-negative"
        );
        Self { grid, values }
    }

    /// The grid this histogram lives on.
    #[inline]
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// Raw row-major values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw values (e.g. for post-processing).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at a cell.
    #[inline]
    pub fn get(&self, c: CellIndex) -> f64 {
        self.values[self.grid.flat(c)]
    }

    /// Increments the count of cell `c` by one (Algorithm 1, line 7).
    pub fn add_cell(&mut self, c: CellIndex) {
        let i = self.grid.flat(c);
        self.values[i] += 1.0;
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Returns a normalized copy summing to 1.
    ///
    /// A histogram with zero total mass normalizes to the uniform
    /// distribution (the natural non-informative estimate).
    pub fn normalized(&self) -> Histogram2D {
        let mut out = self.clone();
        out.normalize();
        out
    }

    /// In-place version of [`Histogram2D::normalized`].
    pub fn normalize(&mut self) {
        let t = self.total();
        if t > 0.0 {
            for v in &mut self.values {
                *v /= t;
            }
        } else {
            let u = 1.0 / self.values.len() as f64;
            self.values.fill(u);
        }
    }

    /// Marginal distribution along x (summing over rows).
    pub fn marginal_x(&self) -> Vec<f64> {
        let d = self.grid.d() as usize;
        let mut m = vec![0.0; d];
        for (i, v) in self.values.iter().enumerate() {
            m[i % d] += v;
        }
        m
    }

    /// Marginal distribution along y (summing over columns).
    pub fn marginal_y(&self) -> Vec<f64> {
        let d = self.grid.d() as usize;
        let mut m = vec![0.0; d];
        for (i, v) in self.values.iter().enumerate() {
            m[i / d] += v;
        }
        m
    }

    /// Support of the histogram as (cell center, mass) pairs with zero-mass
    /// cells skipped; the form consumed by the optimal-transport solvers.
    pub fn support(&self) -> Vec<(Point, f64)> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, v)| (self.grid.cell_center(self.grid.unflat(i)), *v))
            .collect()
    }

    /// Total-variation distance `½ Σ |a_i − b_i|` between two histograms on
    /// the same grid shape. A cheap sanity metric used in tests (the paper's
    /// headline metric, W₂, lives in `dam-transport`).
    pub fn tv_distance(&self, other: &Histogram2D) -> f64 {
        assert_eq!(self.values.len(), other.values.len(), "histogram size mismatch");
        0.5 * self.values.iter().zip(&other.values).map(|(a, b)| (a - b).abs()).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;

    fn grid(d: u32) -> Grid2D {
        Grid2D::new(BoundingBox::unit(), d)
    }

    #[test]
    fn counts_points() {
        let pts = vec![Point::new(0.1, 0.1), Point::new(0.1, 0.2), Point::new(0.9, 0.9)];
        let h = Histogram2D::from_points(grid(2), &pts);
        assert_eq!(h.get(CellIndex::new(0, 0)), 2.0);
        assert_eq!(h.get(CellIndex::new(1, 1)), 1.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn normalization_sums_to_one() {
        let pts: Vec<Point> = (0..17).map(|i| Point::new(i as f64 / 17.0, 0.5)).collect();
        let h = Histogram2D::from_points(grid(4), &pts).normalized();
        assert!((h.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_normalizes_to_uniform() {
        let h = Histogram2D::zeros(grid(3)).normalized();
        for v in h.values() {
            assert!((v - 1.0 / 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn marginals_sum_to_total() {
        let pts = vec![Point::new(0.1, 0.6), Point::new(0.7, 0.2), Point::new(0.8, 0.9)];
        let h = Histogram2D::from_points(grid(3), &pts);
        assert!((h.marginal_x().iter().sum::<f64>() - 3.0).abs() < 1e-12);
        assert!((h.marginal_y().iter().sum::<f64>() - 3.0).abs() < 1e-12);
        // Point (0.1, 0.6) is column 0, row 1.
        assert_eq!(h.marginal_x()[0], 1.0);
        assert_eq!(h.marginal_y()[1], 1.0);
    }

    #[test]
    fn tv_distance_of_disjoint_masses_is_one() {
        let g = grid(2);
        let mut a = Histogram2D::zeros(g.clone());
        let mut b = Histogram2D::zeros(g);
        a.values_mut()[0] = 1.0;
        b.values_mut()[3] = 1.0;
        assert!((a.tv_distance(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.tv_distance(&a), 0.0);
    }

    #[test]
    fn support_skips_zero_cells() {
        let g = grid(2);
        let mut a = Histogram2D::zeros(g);
        a.values_mut()[2] = 5.0;
        let s = a.support();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, 5.0);
    }
}
