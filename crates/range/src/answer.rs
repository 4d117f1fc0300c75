//! Answering range queries from distribution estimates: naive cell
//! summation for one-off queries, a pyramid-backed [`RangeIndex`] when
//! many ranges hit the same estimate.

use crate::query::RangeQuery;
use dam_core::Pyramid;
use dam_geo::Histogram2D;

/// Answers a range query from a (normalized) histogram estimate by summing
/// the covered cells. Combined with any `SpatialEstimator` this turns every
/// distribution mechanism in the workspace into a private range-query
/// engine — the "combine with DAM" route the paper proposes.
///
/// Costs O(cells in the range); amortize repeated queries against the
/// same estimate through a [`RangeIndex`] instead.
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

/// A [`Pyramid`] built once over a histogram estimate so that every
/// subsequent range reads a minimal node cover (boundary-proportional,
/// one pass per level) instead of summing O(cells) — the
/// `BENCH_range.json` numbers pin the speedup at d = 256. Answers equal
/// [`answer_from_histogram`] up to float summation order.
#[derive(Debug, Clone)]
pub struct RangeIndex {
    pyramid: Pyramid,
}

impl RangeIndex {
    /// Aggregates the estimate's plane bottom-up (O(cells) once).
    pub fn new(est: &Histogram2D) -> Self {
        Self { pyramid: Pyramid::from_plane(est.values(), est.grid().d()) }
    }

    /// Answers a range by the node-cover walk.
    pub fn answer(&self, q: &RangeQuery) -> f64 {
        self.pyramid.range_sum(q.x0, q.y0, q.x1, q.y1)
    }

    /// The underlying pyramid (heatmap levels, cover statistics).
    pub fn pyramid(&self) -> &Pyramid {
        &self.pyramid
    }
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
    fn range_index_matches_naive_summation() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut h = Histogram2D::zeros(grid);
        for (i, v) in h.values_mut().iter_mut().enumerate() {
            *v = ((i * 13) % 7) as f64 + 0.25;
        }
        let idx = RangeIndex::new(&h);
        for q in [
            RangeQuery::new(0, 0, 5, 5),
            RangeQuery::new(1, 2, 4, 5),
            RangeQuery::new(3, 3, 3, 3),
            RangeQuery::new(0, 5, 5, 5),
        ] {
            let naive = answer_from_histogram(&h, &q);
            let fast = idx.answer(&q);
            assert!((naive - fast).abs() < 1e-9, "{q:?}: {fast} vs {naive}");
        }
        assert_eq!(idx.pyramid().levels().last().unwrap().per(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the grid")]
    fn rejects_out_of_grid_query() {
        let grid = Grid2D::new(BoundingBox::unit(), 3);
        let h = Histogram2D::zeros(grid);
        answer_from_histogram(&h, &RangeQuery::new(0, 0, 3, 1));
    }
}
