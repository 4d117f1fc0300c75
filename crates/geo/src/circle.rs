//! Exact circle–rectangle geometry.
//!
//! The discrete Disk Area Mechanism classifies grid cells against the high
//! probability border `Bp` (a circle of radius `b̂` around the input cell,
//! Figure 4 of the paper). The predicates here decide that classification
//! exactly, and [`circle_rect_intersection_area`] computes the *exact*
//! intersection area — the quantity the paper's shrunken rectangle
//! (Theorem VI.1) approximates. The exact area powers the "exact
//! intersection" reference kernel in `dam-core`.

use crate::bbox::BoundingBox;
use crate::point::Point;

/// Does the circle of radius `r` centered at `c` intersect (overlap with
/// positive area, or touch) the rectangle?
pub fn circle_intersects_rect(c: Point, r: f64, rect: &BoundingBox) -> bool {
    // Distance from the center to the closest point of the rectangle.
    let dx = (rect.min_x - c.x).max(0.0).max(c.x - rect.max_x);
    let dy = (rect.min_y - c.y).max(0.0).max(c.y - rect.max_y);
    dx * dx + dy * dy <= r * r
}

/// Is the rectangle entirely inside the closed disk of radius `r` at `c`?
pub fn rect_inside_circle(c: Point, r: f64, rect: &BoundingBox) -> bool {
    let fx = (c.x - rect.min_x).abs().max((c.x - rect.max_x).abs());
    let fy = (c.y - rect.min_y).abs().max((c.y - rect.max_y).abs());
    fx * fx + fy * fy <= r * r
}

/// ∫₀ᵘ √(r² − t²) dt for 0 ≤ u ≤ r: area under a circular arc.
fn arc_integral(u: f64, r: f64) -> f64 {
    debug_assert!((0.0..=r * (1.0 + 1e-12)).contains(&u));
    let u = u.min(r);
    0.5 * (u * (r * r - u * u).max(0.0).sqrt() + r * r * (u / r).asin())
}

/// Area of the intersection of the quarter disk `{(t, s) : t,s ≥ 0,
/// t² + s² ≤ r²}` with the box `[0, x] × [0, y]`, for `x, y ≥ 0`.
fn quadrant_area(x: f64, y: f64, r: f64) -> f64 {
    if x <= 0.0 || y <= 0.0 || r <= 0.0 {
        return 0.0;
    }
    if x * x + y * y <= r * r {
        // Far corner inside the circle => the whole box is inside.
        return x * y;
    }
    let xc = x.min(r);
    if y >= r {
        return arc_integral(xc, r);
    }
    // The horizontal line s = y crosses the arc at t = sqrt(r² − y²).
    let ty = (r * r - y * y).sqrt();
    if xc <= ty {
        xc * y
    } else {
        ty * y + arc_integral(xc, r) - arc_integral(ty, r)
    }
}

/// Exact area of the intersection of the disk of radius `r` centered at `c`
/// with an axis-aligned rectangle.
///
/// Computed by inclusion–exclusion of four signed quadrant areas after
/// translating the circle to the origin.
pub fn circle_rect_intersection_area(c: Point, r: f64, rect: &BoundingBox) -> f64 {
    if r <= 0.0 {
        return 0.0;
    }
    let x0 = rect.min_x - c.x;
    let x1 = rect.max_x - c.x;
    let y0 = rect.min_y - c.y;
    let y1 = rect.max_y - c.y;
    // Signed area of circle ∩ [0, x] × [0, y] for arbitrary-sign x, y.
    let signed = |x: f64, y: f64| -> f64 {
        let s = x.signum() * y.signum();
        s * quadrant_area(x.abs(), y.abs(), r)
    };
    let area = signed(x1, y1) - signed(x0, y1) - signed(x1, y0) + signed(x0, y0);
    // Clamp tiny negative values from floating-point cancellation.
    area.max(0.0).min(rect.area().min(std::f64::consts::PI * r * r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn full_containment_gives_rect_area() {
        let rect = BoundingBox::new(-0.5, -0.5, 0.5, 0.5);
        let a = circle_rect_intersection_area(Point::new(0.0, 0.0), 10.0, &rect);
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circle_inside_rect_gives_circle_area() {
        let rect = BoundingBox::new(-5.0, -5.0, 5.0, 5.0);
        let a = circle_rect_intersection_area(Point::new(0.0, 0.0), 2.0, &rect);
        assert!((a - PI * 4.0).abs() < 1e-9);
    }

    #[test]
    fn quarter_circle() {
        // Box covering exactly the first quadrant of the circle.
        let rect = BoundingBox::new(0.0, 0.0, 3.0, 3.0);
        let a = circle_rect_intersection_area(Point::new(0.0, 0.0), 3.0, &rect);
        assert!((a - PI * 9.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn half_plane_cut() {
        // Rectangle covering the right half of the circle.
        let rect = BoundingBox::new(0.0, -10.0, 10.0, 10.0);
        let a = circle_rect_intersection_area(Point::new(0.0, 0.0), 1.0, &rect);
        assert!((a - PI / 2.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_gives_zero() {
        let rect = BoundingBox::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(circle_rect_intersection_area(Point::new(0.0, 0.0), 1.0, &rect), 0.0);
        assert!(!circle_intersects_rect(Point::new(0.0, 0.0), 1.0, &rect));
    }

    #[test]
    fn predicates_agree_with_area() {
        // Sweep cells around a circle and check predicate consistency.
        let r = 2.5;
        let c = Point::new(0.0, 0.0);
        for ix in -5i32..=5 {
            for iy in -5i32..=5 {
                let rect = BoundingBox::new(
                    ix as f64 - 0.5,
                    iy as f64 - 0.5,
                    ix as f64 + 0.5,
                    iy as f64 + 0.5,
                );
                let area = circle_rect_intersection_area(c, r, &rect);
                let intersects = circle_intersects_rect(c, r, &rect);
                let inside = rect_inside_circle(c, r, &rect);
                if inside {
                    assert!((area - 1.0).abs() < 1e-9, "inside cell must be fully covered");
                }
                if area > 1e-12 {
                    assert!(intersects, "positive area implies intersection at ({ix},{iy})");
                }
                if !intersects {
                    assert!(area < 1e-12, "no intersection implies zero area at ({ix},{iy})");
                }
            }
        }
    }

    #[test]
    fn area_monotone_in_radius() {
        let rect = BoundingBox::new(1.0, 1.0, 2.0, 2.0);
        let c = Point::new(0.0, 0.0);
        let mut prev = 0.0;
        for k in 1..=40 {
            let r = k as f64 * 0.1;
            let a = circle_rect_intersection_area(c, r, &rect);
            assert!(a + 1e-12 >= prev, "area must grow with radius");
            prev = a;
        }
        assert!((prev - 1.0).abs() < 1e-9, "large radius covers the cell");
    }

    #[test]
    fn agrees_with_monte_carlo() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let rect = BoundingBox::new(0.3, -0.2, 1.9, 1.1);
        let c = Point::new(0.7, 0.4);
        let r = 0.9;
        let exact = circle_rect_intersection_area(c, r, &rect);
        let n = 400_000;
        let mut hits = 0u32;
        for _ in 0..n {
            let p = Point::new(
                rng.gen_range(rect.min_x..rect.max_x),
                rng.gen_range(rect.min_y..rect.max_y),
            );
            if p.dist(c) <= r {
                hits += 1;
            }
        }
        let mc = hits as f64 / n as f64 * rect.area();
        assert!((exact - mc).abs() < 5e-3, "exact {exact} vs monte-carlo {mc}");
    }
}
