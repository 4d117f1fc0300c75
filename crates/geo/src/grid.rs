//! Grid bucketization of a square region (§VI-A of the paper).
//!
//! The continuous mechanisms of §IV–V cannot count frequencies over an
//! uncountable domain, so the plane is divided into a `d × d` grid of square
//! cells with side length `g = L / d`. Cell positions are identified by the
//! integer index of the cell, and "the coordinate unit is reset to the side
//! length of a grid cell" — all of the disk geometry in `dam-core` works in
//! these cell units.

use crate::bbox::BoundingBox;
use crate::point::Point;

/// Index of a grid cell: `(ix, iy)` column/row position, `(0, 0)` at the
/// bottom-left corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellIndex {
    /// Column (x) index.
    pub ix: u32,
    /// Row (y) index.
    pub iy: u32,
}

impl CellIndex {
    /// Creates a cell index.
    #[inline]
    pub const fn new(ix: u32, iy: u32) -> Self {
        Self { ix, iy }
    }
}

/// A `d × d` grid over a square bounding box.
///
/// This is the *input* grid domain `G` of §VI-A; the dilated *output* grid
/// domain `G̃` (side `d + 2b̂`) is this grid padded by `b̂` cells on every
/// side, indexed by the mechanism kernels in `dam-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    bbox: BoundingBox,
    d: u32,
    cell_side: f64,
}

impl Grid2D {
    /// Builds a grid of `d × d` cells over `bbox`.
    ///
    /// The grid always covers a *square* of side `bbox.side()` anchored at
    /// the box's lower-left corner, so cells are square even when the data
    /// extent is not (the paper's domains are all squares).
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(bbox: BoundingBox, d: u32) -> Self {
        assert!(d > 0, "grid must have at least one cell per side");
        let cell_side = bbox.side() / d as f64;
        Self { bbox, d, cell_side }
    }

    /// Number of cells along one side (the paper's `d`).
    #[inline]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Total number of cells, `n = d²`.
    #[inline]
    pub fn n_cells(&self) -> usize {
        (self.d as usize) * (self.d as usize)
    }

    /// Side length of one cell (the paper's `g`).
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// The bounding box the grid was built over.
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Maps a point to the cell containing it, clamping points on (or
    /// slightly past) the maximum edge into the last cell so that the whole
    /// closed box maps somewhere.
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellIndex {
        let fx = (p.x - self.bbox.min_x) / self.cell_side;
        let fy = (p.y - self.bbox.min_y) / self.cell_side;
        let clamp = |f: f64| -> u32 {
            if f < 0.0 {
                0
            } else {
                (f as u32).min(self.d - 1)
            }
        };
        CellIndex::new(clamp(fx), clamp(fy))
    }

    /// Center point of cell `c` in data coordinates.
    pub fn cell_center(&self, c: CellIndex) -> Point {
        Point::new(
            self.bbox.min_x + (c.ix as f64 + 0.5) * self.cell_side,
            self.bbox.min_y + (c.iy as f64 + 0.5) * self.cell_side,
        )
    }

    /// Bounding box of cell `c` in data coordinates.
    pub fn cell_bbox(&self, c: CellIndex) -> BoundingBox {
        let x0 = self.bbox.min_x + c.ix as f64 * self.cell_side;
        let y0 = self.bbox.min_y + c.iy as f64 * self.cell_side;
        BoundingBox::new(x0, y0, x0 + self.cell_side, y0 + self.cell_side)
    }

    /// Flattens a cell index to a linear index in row-major order
    /// (`iy * d + ix`).
    #[inline]
    pub fn flat(&self, c: CellIndex) -> usize {
        debug_assert!(c.ix < self.d && c.iy < self.d);
        c.iy as usize * self.d as usize + c.ix as usize
    }

    /// Inverse of [`Grid2D::flat`].
    #[inline]
    pub fn unflat(&self, i: usize) -> CellIndex {
        debug_assert!(i < self.n_cells());
        CellIndex::new((i % self.d as usize) as u32, (i / self.d as usize) as u32)
    }

    /// Iterator over all cell indices in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellIndex> + '_ {
        (0..self.n_cells()).map(|i| self.unflat(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(d: u32) -> Grid2D {
        Grid2D::new(BoundingBox::unit(), d)
    }

    #[test]
    fn maps_points_to_expected_cells() {
        let g = unit_grid(4);
        assert_eq!(g.cell_of(Point::new(0.1, 0.1)), CellIndex::new(0, 0));
        assert_eq!(g.cell_of(Point::new(0.9, 0.1)), CellIndex::new(3, 0));
        assert_eq!(g.cell_of(Point::new(0.49, 0.51)), CellIndex::new(1, 2));
        // Points on the max edge belong to the last cell.
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), CellIndex::new(3, 3));
        // Slightly out-of-range points clamp instead of panicking.
        assert_eq!(g.cell_of(Point::new(-0.01, 2.0)), CellIndex::new(0, 3));
    }

    #[test]
    fn centers_round_trip() {
        let g = unit_grid(7);
        for c in g.cells() {
            assert_eq!(g.cell_of(g.cell_center(c)), c);
        }
    }

    #[test]
    fn flat_unflat_round_trip() {
        let g = unit_grid(5);
        for i in 0..g.n_cells() {
            assert_eq!(g.flat(g.unflat(i)), i);
        }
    }

    #[test]
    fn cell_bbox_tiles_domain() {
        let g = unit_grid(3);
        let total: f64 = g.cells().map(|c| g.cell_bbox(c).area()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_bbox_uses_max_side() {
        let g = Grid2D::new(BoundingBox::new(0.0, 0.0, 1.0, 2.0), 4);
        assert_eq!(g.cell_side(), 0.5);
        // x coordinates past the data width still map into the square grid.
        assert_eq!(g.cell_of(Point::new(1.9, 1.9)), CellIndex::new(3, 3));
    }
}
