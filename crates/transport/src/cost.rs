//! Ground-cost matrices between discrete supports.

use dam_geo::Point;

/// A dense `m × n` ground-cost matrix `M` (Equation 17 of the paper:
/// `M = {‖X_i − Y_j‖_p^p}`), stored row-major.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    m: usize,
    n: usize,
    costs: Vec<f64>,
}

impl CostMatrix {
    /// Builds the matrix of `p`-norm-to-the-`p` costs between two point
    /// supports: `cost[i][j] = ‖a_i − b_j‖₂^p`.
    ///
    /// `p = 2` gives the squared-Euclidean ground cost of the paper's
    /// `W₂²`; `p = 1` the Euclidean cost of `W₁`.
    pub fn euclidean_pow(a: &[Point], b: &[Point], p: u32) -> Self {
        assert!(p >= 1, "cost exponent must be at least 1");
        let mut costs = Vec::with_capacity(a.len() * b.len());
        for &x in a {
            for &y in b {
                let d = x.dist(y);
                costs.push(d.powi(p as i32));
            }
        }
        Self { m: a.len(), n: b.len(), costs }
    }

    /// Number of rows (source support size).
    #[inline]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns (target support size).
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Cost of moving one unit of mass from source `i` to target `j`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.m && j < self.n);
        self.costs[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_costs() {
        let a = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let b = [Point::new(0.0, 0.0), Point::new(0.0, 2.0)];
        let c = CostMatrix::euclidean_pow(&a, &b, 2);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.at(0, 0), 0.0);
        assert!((c.at(0, 1) - 4.0).abs() < 1e-12);
        assert!((c.at(1, 0) - 1.0).abs() < 1e-12);
        assert!((c.at(1, 1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn linear_costs_are_distances() {
        let a = [Point::new(0.0, 0.0)];
        let b = [Point::new(3.0, 4.0)];
        let c = CostMatrix::euclidean_pow(&a, &b, 1);
        assert_eq!(c.at(0, 0), 5.0);
    }
}
