//! Axis-aligned bounding boxes.

use crate::point::Point;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// Used both for dataset extents (Table III of the paper) and for the square
/// input domain `D` of the mechanisms (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Smallest x coordinate contained in the box.
    pub min_x: f64,
    /// Smallest y coordinate contained in the box.
    pub min_y: f64,
    /// Largest x coordinate contained in the box.
    pub max_x: f64,
    /// Largest y coordinate contained in the box.
    pub max_y: f64,
}

impl BoundingBox {
    /// Creates a box from its corner coordinates.
    ///
    /// # Panics
    /// Panics if the box would be empty (`min > max` on either axis) or any
    /// coordinate is non-finite.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite(),
            "bounding box coordinates must be finite"
        );
        assert!(min_x <= max_x && min_y <= max_y, "empty bounding box");
        Self { min_x, min_y, max_x, max_y }
    }

    /// The unit square `[0,1]²` — the canonical input domain of §IV.
    pub fn unit() -> Self {
        Self::new(0.0, 0.0, 1.0, 1.0)
    }

    /// A square `[0,l]²` with side length `l` (the "general side length
    /// input" of §V-C).
    pub fn square(l: f64) -> Self {
        assert!(l > 0.0, "side length must be positive");
        Self::new(0.0, 0.0, l, l)
    }

    /// The smallest box containing every point in `pts`.
    ///
    /// Returns `None` for an empty slice.
    pub fn of_points(pts: &[Point]) -> Option<Self> {
        let first = pts.first()?;
        let mut b = Self { min_x: first.x, min_y: first.y, max_x: first.x, max_y: first.y };
        for p in &pts[1..] {
            b.min_x = b.min_x.min(p.x);
            b.min_y = b.min_y.min(p.y);
            b.max_x = b.max_x.max(p.x);
            b.max_y = b.max_y.max(p.y);
        }
        Some(b)
    }

    /// Width (x extent) of the box.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height (y extent) of the box.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Side length `L` used by the mechanisms; for non-square extents this is
    /// the larger of width and height so the grid always covers the data.
    #[inline]
    pub fn side(&self) -> f64 {
        self.width().max(self.height())
    }

    /// Area of the box.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether `p` lies inside the box (closed on all sides).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// The center point of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square() {
        let b = BoundingBox::unit();
        assert_eq!(b.side(), 1.0);
        assert_eq!(b.area(), 1.0);
        assert!(b.contains(Point::new(0.5, 0.5)));
        assert!(b.contains(Point::new(0.0, 1.0)));
        assert!(!b.contains(Point::new(1.0001, 0.5)));
    }

    #[test]
    fn of_points_covers_all() {
        let pts = [Point::new(1.0, -2.0), Point::new(-3.0, 4.0), Point::new(0.0, 0.0)];
        let b = BoundingBox::of_points(&pts).unwrap();
        assert_eq!(b, BoundingBox::new(-3.0, -2.0, 1.0, 4.0));
        for p in pts {
            assert!(b.contains(p));
        }
        assert!(BoundingBox::of_points(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "empty bounding box")]
    fn rejects_inverted() {
        BoundingBox::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn side_of_non_square_is_max_extent() {
        let b = BoundingBox::new(0.0, 0.0, 2.0, 5.0);
        assert_eq!(b.side(), 5.0);
        assert_eq!(b.center(), Point::new(1.0, 2.5));
    }
}
