//! Answering range queries from distribution estimates by naive cell
//! summation. Many ranges against one estimate read a
//! [`dam_core::Pyramid`] built over it instead.

use crate::query::RangeQuery;
use dam_geo::Histogram2D;

/// Answers a range query from a (normalized) histogram estimate by summing
/// the covered cells. Combined with any `SpatialEstimator` this turns every
/// distribution mechanism in the workspace into a private range-query
/// engine — the "combine with DAM" route the paper proposes.
///
/// Costs O(cells in the range); amortize repeated queries against the
/// same estimate through [`dam_core::Pyramid::from_plane`] and
/// [`dam_core::Pyramid::range_sum`] instead.
pub fn answer_from_histogram(est: &Histogram2D, q: &RangeQuery) -> f64 {
    let d = est.grid().d();
    assert!(q.x1 < d && q.y1 < d, "query exceeds the grid");
    let mut acc = 0.0;
    for iy in q.y0..=q.y1 {
        for ix in q.x0..=q.x1 {
            acc += est.get(dam_geo::CellIndex::new(ix, iy));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RangeQuery;
    use dam_geo::{BoundingBox, Grid2D};

    #[test]
    fn sums_covered_cells() {
        let grid = Grid2D::new(BoundingBox::unit(), 3);
        let mut h = Histogram2D::zeros(grid);
        for (i, v) in h.values_mut().iter_mut().enumerate() {
            *v = (i + 1) as f64; // 1..9 row-major
        }
        // Bottom-left 2x2 block: cells (0,0)=1, (1,0)=2, (0,1)=4, (1,1)=5.
        let q = RangeQuery::new(0, 0, 1, 1);
        assert_eq!(answer_from_histogram(&h, &q), 12.0);
        // Full grid sums everything.
        let full = RangeQuery::new(0, 0, 2, 2);
        assert_eq!(answer_from_histogram(&h, &full), 45.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the grid")]
    fn rejects_out_of_grid_query() {
        let grid = Grid2D::new(BoundingBox::unit(), 3);
        let h = Histogram2D::zeros(grid);
        answer_from_histogram(&h, &RangeQuery::new(0, 0, 3, 1));
    }
}
